"""The 92 report-matrix jobs print what benchmarks/report_matrix_digests.json
records, byte for byte.

Each job runs in-process, as `benchmarks/report_matrix.py` runs it.  On a
mismatch the failure names every changed job and leaves the new outputs in
a temporary directory, so they can be diffed against a run of the parent
checkout.  Reports that move on purpose are re-recorded with
`python benchmarks/report_matrix.py --digests benchmarks/report_matrix_digests.json`.
"""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "report_matrix.py"


@pytest.fixture(scope="module")
def matrix():
    spec = importlib.util.spec_from_file_location("report_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorded_digests_cover_every_job(matrix):
    recorded = json.loads(matrix.DIGESTS.read_text())["jobs"]
    names = [matrix.file_name(job) for job in matrix.jobs()]
    assert len(set(names)) == len(names) == 92
    assert sorted(recorded) == sorted(names)


def test_reports_match_the_recorded_digests(matrix, monkeypatch):
    recorded = json.loads(matrix.DIGESTS.read_text())
    running = matrix.versions()
    assert {key: recorded[key] for key in running} == running, (
        "digests were recorded under other versions; rerun the matrix under "
        "the recorded ones, or re-record them and compare the reports by hand"
    )
    monkeypatch.chdir(matrix.ROOT)
    changed = {}
    for job in matrix.jobs():
        name = matrix.file_name(job)
        text = matrix.report_text(job)
        if matrix.digest(text) != recorded["jobs"].get(name):
            changed[name] = text
    if changed:
        outdir = Path(tempfile.mkdtemp(prefix="report-matrix-"))
        for name, text in changed.items():
            (outdir / name).write_text(text)
        pytest.fail(
            f"{len(changed)} report(s) changed, new outputs in {outdir}:\n"
            + "\n".join(sorted(changed))
        )
