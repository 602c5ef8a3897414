#!/usr/bin/env python3
"""Write the JSON reports of a fixed matrix of `webrank` jobs, one file each.

    python3 benchmarks/report_matrix.py OUTDIR
    python3 benchmarks/report_matrix.py --digests FILE

Runs 92 jobs in-process through `webrank.cli.main([... "--format", "json"])`,
importing `webrank` from the `src/` directory of the checkout this script
sits in, with that checkout as the working directory:

* `verify-family` for all 14 catalog families at seeds 0, 1 and 7;
* `verify-family --corroborate` for the 13 exp/log-free families at seeds 0
  and 7, and for `k0_4_exp` at seed 0;
* `rank --family k0_4_exp --n 3 --precision 32`, which escalates once;
* at seeds 0 and 3, eleven jobs whose verdict is `false` or
  `inconclusive` or that are refused: `rank --n 2`, `rank --n 2 --m-start 2
  --m-cap 3` (no stabilization: dims 1, then 0) and `verify-family` on the
  non-hexagonal web `benchmarks/nonhexagonal_k0_2.json`,
  `check-ordinary --direct --n 4` and `crosscheck --n 4` on
  `benchmarks/dependent_gradients_k0_4.json`, `check-ordinary --direct
  --n 4` and `verify-family` on its float twin
  `benchmarks/dependent_gradients_float_k0_4.json` (at n = 3 and 4 the
  order-6 dim reads the bound while J_4 is singular, so the float estimate
  ranks order 5 as well),
  `validate --n 3` on `benchmarks/proportional_pair_k0_3.json`,
  `rank --family k0_3_quadrics --n 3 --m-cap 4` (a cap at the start order,
  a usage error), and `crosscheck` on `k0_3_quadrics` and on
  `k0_4_exp --n 3`.  The fixtures are passed by their path relative to the
  checkout, which every report echoes under `config.input`.

Each job's file holds `exit <code>` on its first line and the job's standard
output after it.  Reports are byte-identical for identical argv and seed, so
two checkouts give the same results exactly when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.  To check another checkout, copy this script into its
`benchmarks/` directory and run it from there.

With `--digests FILE` it writes, instead of the reports, one SHA-256 per
job over that same file text, together with the Python and mpmath versions
the jobs ran under (float strings depend on mpmath's arithmetic).  The
committed `benchmarks/report_matrix_digests.json` is checked by
`tests/test_report_matrix.py`; a change that moves reports on purpose
regenerates it with this command and names every changed job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import time
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from webrank import catalog, cli  # noqa: E402

DIGESTS = ROOT / "benchmarks" / "report_matrix_digests.json"

NON_HEXAGONAL = "benchmarks/nonhexagonal_k0_2.json"
DEPENDENT_GRADIENTS = "benchmarks/dependent_gradients_k0_4.json"
DEPENDENT_GRADIENTS_FLOAT = "benchmarks/dependent_gradients_float_k0_4.json"
PROPORTIONAL_PAIR = "benchmarks/proportional_pair_k0_3.json"


def jobs() -> list[list[str]]:
    families = catalog.family_names()
    exact = [name for name in families if name != "k0_4_exp"]
    out = [
        ["verify-family", "--family", name, "--seed", str(seed)]
        for seed in (0, 1, 7)
        for name in families
    ]
    out += [
        ["verify-family", "--family", name, "--seed", str(seed), "--corroborate"]
        for seed in (0, 7)
        for name in exact
    ]
    out += [
        ["verify-family", "--family", "k0_4_exp", "--seed", "0", "--corroborate"],
        ["rank", "--family", "k0_4_exp", "--n", "3", "--precision", "32"],
    ]
    negative = [
        ["rank", "--input", NON_HEXAGONAL, "--n", "2"],
        ["verify-family", "--input", NON_HEXAGONAL],
        ["check-ordinary", "--input", DEPENDENT_GRADIENTS, "--direct", "--n", "4"],
        ["crosscheck", "--input", DEPENDENT_GRADIENTS, "--n", "4"],
        [
            "check-ordinary",
            "--input",
            DEPENDENT_GRADIENTS_FLOAT,
            "--direct",
            "--n",
            "4",
        ],
        ["verify-family", "--input", DEPENDENT_GRADIENTS_FLOAT],
        ["validate", "--input", PROPORTIONAL_PAIR, "--n", "3"],
        ["rank", "--family", "k0_3_quadrics", "--n", "3", "--m-cap", "4"],
        [
            "rank",
            "--input",
            NON_HEXAGONAL,
            "--n",
            "2",
            "--m-start",
            "2",
            "--m-cap",
            "3",
        ],
        ["crosscheck", "--family", "k0_3_quadrics"],
        ["crosscheck", "--family", "k0_4_exp", "--n", "3"],
    ]
    out += [[*job, "--seed", str(seed)] for seed in (0, 3) for job in negative]
    return out


def file_name(argv: list[str]) -> str:
    return "_".join(arg.lstrip("-").replace("/", "_") for arg in argv) + ".txt"


def report_text(job: list[str]) -> str:
    """`exit <code>` and the job's standard output, as its file holds them;
    fixture paths resolve against the working directory."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([*job, "--format", "json"])
    return f"exit {code}\n{buffer.getvalue()}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def versions() -> dict[str, str]:
    """The interpreter and mpmath versions the reports depend on."""
    return {"python": platform.python_version(), "mpmath": mpmath.__version__}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    digests = args[:1] == ["--digests"]
    if len(args) != 1 + digests:
        print(__doc__, file=sys.stderr)
        return 64
    target = Path(args[-1]).resolve()
    if not digests:
        target.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)
    recorded = {}
    for job in jobs():
        start = time.perf_counter()
        text = report_text(job)
        elapsed = time.perf_counter() - start
        name = file_name(job)
        status = text.partition("\n")[0]
        if digests:
            recorded[name] = digest(text)
        else:
            (target / name).write_text(text)
        print(f"{elapsed:7.2f} s  {status}  {name}")
    if digests:
        payload = {**versions(), "jobs": recorded}
        target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
