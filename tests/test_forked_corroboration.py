"""The corroborating dimension of `verify-family --corroborate`, ranked in a
forked child (abelrank._Forked) or in-process.

abelrank._fork_usable chooses the path; the tests patch it to force either
one.  Both paths print the same report and raise the same exceptions, no
child outlives a command, and a run that cannot fork, or has one CPU,
never calls os.fork.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from webrank import abelrank
from webrank.cli import main
from webrank.expr import EvalError

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made, counted in this process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def force(monkeypatch, forking: bool) -> None:
    monkeypatch.setattr(abelrank, "_fork_usable", lambda: forking)


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def corroborate(family: str, seed: int = 0) -> list[str]:
    argv = ["verify-family", "--family", family, "--seed", str(seed)]
    return [*argv, "--corroborate", "--format", "json"]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "family",
    ["k0_4_pereira_pirio_affine", "k0_4_WB_sum", "k0_3_quadrics", "k0_4_exp"],
)
def test_both_paths_print_the_same_report(monkeypatch, capsys, forks, family, seed):
    outputs = []
    for forking in (True, False):
        force(monkeypatch, forking)
        code = main(corroborate(family, seed))
        outputs.append((code, capsys.readouterr().out))
    assert len(forks) == 1
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    per_n = json.loads(outputs[0][1])["rank"]["per_n"]
    assert per_n[-1]["n"] == int(family[3]) + 1
    assert_no_child_is_left()


def test_a_corroborated_run_reaps_its_child(monkeypatch, capsys, forks):
    force(monkeypatch, True)
    assert main(corroborate("k0_3_quadrics")) == 0
    assert len(forks) == 1
    assert_no_child_is_left()


def test_a_failing_check_below_kills_and_reaps_the_child(monkeypatch, forks):
    # the child's check would run for a minute; the parent's n=2 check
    # raises at once, and the command ends with it, leaving no child
    force(monkeypatch, True)
    check_rank = abelrank.check_rank

    def planted(E, n, *args):
        if n == E.k0 + 1:
            time.sleep(60)
        if n == 2:
            raise EvalError("planted at n=2")
        return check_rank(E, n, *args)

    monkeypatch.setattr(abelrank, "check_rank", planted)
    start = time.perf_counter()
    with pytest.raises(EvalError, match="planted at n=2"):
        main(corroborate("k0_3_quadrics"))
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    assert_no_child_is_left()


def test_a_child_that_leaves_without_a_result_is_replaced(monkeypatch, capsys, forks):
    # the child's check exits before it sends anything: the parent runs
    # the check itself and prints the in-process report
    force(monkeypatch, False)
    assert main(corroborate("k0_3_quadrics")) == 0
    expected = capsys.readouterr().out
    force(monkeypatch, True)
    parent = os.getpid()
    check_rank = abelrank.check_rank

    def planted(E, n, *args):
        if os.getpid() != parent:
            os._exit(3)
        return check_rank(E, n, *args)

    monkeypatch.setattr(abelrank, "check_rank", planted)
    assert main(corroborate("k0_3_quadrics")) == 0
    assert capsys.readouterr().out == expected
    assert len(forks) == 1
    assert_no_child_is_left()


# Runs verify-family --corroborate on k0_3_quadrics in a fresh interpreter
# with an exception planted in the n=4 check, on the path argv[1] names;
# prints the os.fork calls, then lets the exception end the process.
PLANTED_RUN = """
import os, sys
from webrank import abelrank, cli
from webrank.expr import EvalError
forks = []
fork = os.fork
os.fork = lambda: forks.append(None) or fork()
abelrank._fork_usable = lambda: sys.argv[1] == "fork"
check_rank = abelrank.check_rank

def planted(E, n, *args):
    if n == 4:
        raise {error}
    return check_rank(E, n, *args)

abelrank.check_rank = planted
try:
    sys.exit(cli.main(["verify-family", "--family", "k0_3_quadrics", "--corroborate"]))
finally:
    print("forks", len(forks), flush=True)
"""


@pytest.mark.parametrize(
    "error,code,message",
    [
        ('EvalError("planted at n=4")', 1, "EvalError: planted at n=4"),
        # an exception that pickles but does not unpickle (its __init__
        # takes two arguments): the parent runs the check itself
        ('cli._InputError("planted at n=4", 65)', 65, "webrank: planted at n=4"),
    ],
)
def test_an_exception_in_the_child_surfaces_as_in_process(error, code, message):
    runs = {}
    for path in ("fork", "in-process"):
        runs[path] = subprocess.run(
            [sys.executable, "-c", PLANTED_RUN.format(error=error), path],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=120,
        )
    fork, in_process = runs["fork"], runs["in-process"]
    assert fork.stdout.splitlines()[-1] == "forks 1"
    assert in_process.stdout.splitlines()[-1] == "forks 0"
    assert fork.returncode == in_process.returncode == code
    assert fork.stderr.splitlines()[-1] == in_process.stderr.splitlines()[-1]
    assert in_process.stderr.splitlines()[-1].endswith(message)


@pytest.mark.parametrize(
    "setting",
    ["one CPU", "one CPU, no sched_getaffinity", "no os.fork", "a second thread"],
)
def test_a_run_that_cannot_fork_ranks_in_process(monkeypatch, capsys, setting):
    if setting != "no os.fork":
        monkeypatch.setattr(os, "fork", pytest.fail)
    if setting == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif setting == "one CPU, no sched_getaffinity":
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif setting == "no os.fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(abelrank.threading, "active_count", lambda: 2)
    assert main(corroborate("k0_3_quadrics")) == 0
    unforked = capsys.readouterr().out
    force(monkeypatch, False)
    assert main(corroborate("k0_3_quadrics")) == 0
    assert capsys.readouterr().out == unforked


def test_a_traced_run_ranks_in_process(monkeypatch):
    # a trace function in this process would not see a child's work
    monkeypatch.setattr(sys, "gettrace", lambda: print)
    assert not abelrank._fork_usable()


@pytest.mark.parametrize("workload", ["catalog_exact", "float_exp"])
def test_the_workloads_without_corroboration_never_fork(monkeypatch, capsys, workload):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
    monkeypatch.setattr(os, "fork", pytest.fail)
    for argv, _ in run.WORKLOADS[workload]:
        assert "--corroborate" not in argv
        assert main([*argv, "--format", "json"]) == 0
    capsys.readouterr()
