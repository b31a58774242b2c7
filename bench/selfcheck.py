"""Self-check of the artifact checker on hand-made artifacts.

Run standalone with `python3 bench/selfcheck.py`; run.py runs it before
every measurement and refuses to report if it fails.  A scan with a nan
row, a `cm` footer over tolerance, a digest mismatch and an escaped
exception must each count as failed operations; artifacts that pass
must count none.
"""

from __future__ import annotations

import sys

from check import judge
from workloads import Job

_SCAN_OK = """# cmtomo 0.1.0
# config sha256 0123
# scan fixed-energy E 10 epsilon 0.10000000000000001
N,hbar,S_N,sigma2,rE,RE,ks,tv
4,1.6666666666666667,0.61421182128237417,10,5,20,0.012054142679254365,0.033207311045375089
8,0.83333333333333337,0.43431334391370663,10,5,20,0.0039702278200631491,0.01027405684401278
"""
_SCAN_NAN = _SCAN_OK + "256,0.026041666666666668,0.076776477660296855,10,5,20,nan,nan\n"
_SCAN_OK += "16,0.41666666666666669,0.30710591064118714,10,5,20,0.0019454859260547852,0.0049870152974265426\n"

_CM = """# cmtomo 0.1.0
# sigma2 12
X,density,density_cf,density_mc
-1,0.1,0.1,0.1
0,0.3,0.3,0.3
# tv_fft_cf {tv}
# tv_fft_mc 0.0042311903330632828
# ks_fft_mc 0.0012313811741931913
"""

_REPORT = """# cmtomo 0.1.0
quantity,alpha_re,alpha_im,parity,mu,nu,hbar,published_value,oracle_value,ratio
x_diag,0,0,-,1,0,1,0,0,nan
x2_diag,0,0,-,1,0,1,0.5,0.5,1
"""


def selfcheck() -> list[str]:
    """Problems found; empty when the checker behaves."""
    single = Job("scan", "clt-scan", "", (), "clt-single", 3)
    cm = Job("cm", "cm", "", (), "cm", 1)
    report = Job("report", "discrepancy-report", "", (), "report", 1)
    cases = [
        ("scan that passes", judge(single, 0, _SCAN_OK, "a", None), 0),
        ("scan with a nan row", judge(single, 0, _SCAN_NAN, "a", None), 1),
        ("cm within tolerance", judge(cm, 0, _CM.format(tv="1.9e-14"), "a", "a"), 0),
        ("cm footer over tolerance", judge(cm, 0, _CM.format(tv="2e-6"), "a", None), 1),
        ("digest mismatch", judge(cm, 0, _CM.format(tv="1.9e-14"), "a", "b"), 1),
        ("exception escaping cli.main", judge(cm, "exception: ValueError", None, None, None), 1),
        ("report with an undefined ratio", judge(report, 0, _REPORT, "a", None), 0),
        ("report with a nan ratio", judge(report, 0, _REPORT.replace(",1\n", ",nan\n"), "a", None), 1),
    ]
    problems = []
    for label, verdicts, want in cases:
        got = sum(v is not None for v in verdicts)
        if got != want:
            problems.append(f"{label}: {got} failed operations, expected {want}")
    return problems


if __name__ == "__main__":
    found = selfcheck()
    for problem in found:
        print(problem)
    print("checker self-check", "FAILED" if found else "passed")
    sys.exit(1 if found else 0)
