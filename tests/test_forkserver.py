"""The fork server runs a generated program as a fresh ``python3 program.py``
would: same stdout and exit status over a corpus, run concurrently, and no
server left behind."""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from tablefocus import forkserver, reasoning
from tablefocus.core import Table
from tablefocus.evaluation import EvalInstance, evaluate
from tablefocus.forkserver import MAX_OUTPUT_BYTES, _limit_resources
from tablefocus.normalize import skip_normalization
from tablefocus.reasoning import Answer, ExecutorProfile, execute_program, focus_as_csv
from tablefocus.sqlrows import RowSet
from tablefocus.structure import construct_focus

from conftest import GOLDEN_CASES, RIDERS_TABLE, process_ended, record_run

SRC = Path(__file__).resolve().parent.parent / "src"
STORES = Table.make(
    ["Store", "Units", "Revenue", "Opened"],
    [
        ["Acme 1", "120", "1500.25", "1998-03-04"],
        ["Acme 2", "80", "990.10", "2004-11-30"],
        ["Acme 3", "45", "310.00", "1987-06-15"],
    ],
)
FOCUS = construct_focus(skip_normalization(STORES), RowSet(indices=(0, 1, 2)), list(STORES.headers))
# A symbolic case whose program prints a set of strings, whose order follows
# the hash seed of the interpreter that runs it.
SET_CASE = dataclasses.replace(
    GOLDEN_CASES[0],
    id="riders-set",
    replies={
        **GOLDEN_CASES[0].replies,
        "symbolic_reasoning": ["```python\nprint(' '.join({'alpha', 'bravo', 'charlie', 'delta', 'echo', 'foxtrot'}))\n```"],
    },
)


def _reference_execute(program, focus, profile=ExecutorProfile(), question=""):
    """The executor before the fork server: a fresh interpreter per program,
    its limits set by ``preexec_fn``. Returns (stdout, exit status, timed out)."""
    with tempfile.TemporaryDirectory(prefix="tf-exec-") as workdir:
        program_path = os.path.join(workdir, "program.py")
        table_path = os.path.join(workdir, "table.csv")
        with open(program_path, "w", encoding="utf-8") as fh:
            fh.write(program)
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(focus_as_csv(focus))
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": workdir,
            "TZ": "UTC",
            reasoning.TABLE_PATH_ENV: table_path,
            reasoning.QUESTION_ENV: question,
        }
        with tempfile.TemporaryFile(dir=workdir) as out:
            try:
                proc = subprocess.Popen(
                    list(profile.command) + [program_path],
                    cwd=workdir,
                    env=env,
                    stdout=out,
                    stderr=subprocess.DEVNULL,
                    start_new_session=True,
                    preexec_fn=lambda: _limit_resources(profile.timeout_s),
                )
            except OSError:
                return "", 127, False
            waiter = threading.Thread(target=proc.wait, daemon=True)
            waiter.start()
            waiter.join(profile.timeout_s)
            timed_out = waiter.is_alive()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            waiter.join()
            out.seek(0)
            stdout = out.read(MAX_OUTPUT_BYTES).decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")
        return stdout, -1 if timed_out else proc.returncode, timed_out


_HEAD = 'import csv\nimport os\n{extra}\nwith open(os.environ["TM_TABLE_PATH"], newline="") as fh:\n    rows = list(csv.DictReader(fh))\n'

CORPUS = {
    "no trailing newline": "print('partial', end='')",
    "exit None": "import sys\nprint('a')\nsys.exit(None)",
    "exit 3": "import sys\nsys.exit(3)",
    "exit 256": "import sys\nsys.exit(256)",
    "exit message": "import sys\nprint('before')\nsys.exit('msg')",
    "uncaught ValueError": "print('x')\nraise ValueError('bad')",
    "KeyboardInterrupt": "print('k')\nraise KeyboardInterrupt",
    "RecursionError": "def f(n):\n    return f(n + 1)\nprint('deep')\nf(0)",
    "os._exit": "import os, sys\nprint('lost in the buffer')\nsys.stdout.flush()\nprint('and this')\nos._exit(5)",
    # The fork server's child can send no status: it comes by reaping.
    "fds closed": "import os, sys\nprint('closed', flush=True)\nos.closerange(3, 1 << 16)\nsys.exit(4)",
    "SIGKILL": "import os, signal\nprint('killed', flush=True)\nos.kill(os.getpid(), signal.SIGKILL)",
    # The program's own fork ends as the fork of a fresh interpreter would,
    # without ending the run.
    "os.fork": (
        "import os, time\n"
        "if os.fork() == 0:\n    print('child')\nelse:\n    os.wait()\n    time.sleep(0.1)\n    print('parent')"
    ),
    "late thread": (
        "import threading, time\n"
        "def late():\n    time.sleep(0.2)\n    print('late')\n"
        "threading.Thread(target=late).start()\nprint('main')"
    ),
    "atexit": "import atexit\natexit.register(lambda: print('at exit'))\nprint('main')",
    "over 1 MiB": "print('x' * (2 * 1024 * 1024))",
    "MemoryError": "print('before')\nblock = bytearray(600 * 1024 * 1024)\nprint('after')",
    "interpreter state": (
        "import os, sys\n"
        "rel = {'HOME', 'TM_TABLE_PATH'}\n"
        "print(__name__, os.path.relpath(__file__), [os.path.relpath(a) for a in sys.argv])\n"
        "print(os.path.relpath(os.getcwd()), os.path.relpath(sys.path[0]), sys.stdout.encoding)\n"
        "print(sorted((k, os.path.relpath(v) if k in rel else v) for k, v in os.environ.items()))\n"
        "print(sorted((k, type(v).__name__) for k, v in globals().items() if k != 'rel'))\n"
    ),
    "helper module": "with open('helper.py', 'w') as fh:\n    fh.write('X = 41\\n')\nimport helper\nprint(helper.X + 1)",
    "units total": _HEAD.format(extra="") + 'print(sum(int(r["Units"]) for r in rows))\n',
    "revenue total": _HEAD.format(extra="from decimal import Decimal\n")
    + 'print(sum((Decimal(r["Revenue"]) for r in rows), Decimal("0.00")))\n',
    "opened before": _HEAD.format(extra="") + 'print(sum(1 for r in rows if r["Opened"] < "2000-01-01"))\n',
    "exec failure": "import sys\nsys.exit(3)\n",
    # State of the modules the server preloads.
    "decimal context": "import decimal\nprint(decimal.getcontext())",
    "csv state": "import csv\nprint(csv.field_size_limit(), csv.list_dialects())",
    "no tablefocus module": "import sys\nprint(sorted(m for m in sys.modules if m.startswith('tablefocus')))",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fork_server_matches_a_fresh_interpreter(name):
    program = CORPUS[name]
    result = execute_program(program, FOCUS, question="How many?")
    expected = _reference_execute(program, FOCUS, question="How many?")
    assert (result.stdout, result.exit_status, result.timed_out) == expected


@pytest.mark.parametrize("name", ["interpreter state", "helper module"])
def test_an_isolated_interpreter_matches_too(name):
    profile = ExecutorProfile(command=("python3", "-I"))
    result = execute_program(CORPUS[name], FOCUS, profile=profile)
    assert (result.stdout, result.exit_status, result.timed_out) == _reference_execute(CORPUS[name], FOCUS, profile)


def test_corpus_covers_each_exit_path():
    names = ("exit 256", "KeyboardInterrupt", "os._exit", "fds closed", "SIGKILL")
    statuses = {name: _reference_execute(CORPUS[name], FOCUS)[1] for name in names}
    assert statuses == {
        "exit 256": 0, "KeyboardInterrupt": -signal.SIGINT, "os._exit": 5, "fds closed": 4, "SIGKILL": -signal.SIGKILL
    }


def test_runs_in_flight_do_not_wait_for_each_other():
    execute_program("pass", FOCUS)  # the server's start-up is not what is timed
    instance = EvalInstance(id="sleep", table=RIDERS_TABLE, question="q", gold_answers=("0",))

    def run(instance):
        result = execute_program("import time\ntime.sleep(0.5)\nprint(0)", FOCUS)
        return Answer(value=result.answer_line, task_kind="qa"), {}

    start = time.monotonic()
    report = evaluate([instance, instance], run, parallelism=2)
    assert time.monotonic() - start < 0.9
    assert report.accuracy == 1.0


def test_concurrent_runs_each_get_their_own_output():
    """Eight threads share one server, started cold under a racing first call."""
    running = forkserver._servers.get(ExecutorProfile().command)
    if running is not None:
        os.kill(running[0], signal.SIGKILL)
        os.waitpid(running[0], 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            lines = list(pool.map(lambda i: execute_program(f"print({i})", FOCUS).answer_line, range(40)))
    finally:
        sys.setswitchinterval(interval)
    assert lines == [str(i) for i in range(40)]


def test_a_killed_server_is_restarted_on_the_next_run():
    assert execute_program("print(1)", FOCUS).answer_line == "1"
    pid, _ = forkserver._servers[ExecutorProfile().command]
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    result = execute_program("print(2)", FOCUS)
    assert (result.exit_status, result.answer_line) == (0, "2")


def test_a_program_sees_no_state_a_former_one_left():
    setter = (
        "import csv, decimal\n"
        "decimal.getcontext().prec = 3\n"
        "csv.field_size_limit(7)\n"
        "csv.register_dialect('pipes', delimiter='|')\n"
        "print(decimal.getcontext().prec, csv.field_size_limit(), csv.list_dialects())\n"
    )
    assert execute_program(setter, FOCUS).answer_line == "3 7 ['excel', 'excel-tab', 'unix', 'pipes']"
    reader = "import csv, decimal\nprint(decimal.getcontext().prec, csv.field_size_limit(), csv.list_dialects())"
    assert execute_program(reader, FOCUS).answer_line == "28 131072 ['excel', 'excel-tab', 'unix']"


def test_each_program_draws_its_own_random_numbers():
    # Where site's imports load random at start-up, the server's copy is
    # shared by every fork, and only random's at-fork reseed keeps the runs apart.
    draw = "import sys\nloaded = 'random' in sys.modules\nimport random\nprint(loaded, random.getrandbits(64))"
    first, second = (execute_program(draw, FOCUS).answer_line.split() for _ in range(2))
    assert first[0] == second[0] == _reference_execute(draw, FOCUS)[0].split()[0]
    assert first[1] != second[1]


def test_a_programs_own_csv_module_is_not_what_it_imports():
    # The server preloads csv, so the program's csv.py is never looked for.
    program = "with open('csv.py', 'w') as fh:\n    fh.write('MINE = 1\\n')\nimport csv\nprint(hasattr(csv, 'MINE'))"
    assert execute_program(program, FOCUS).answer_line == "False"
    assert _reference_execute(program, FOCUS)[0] == "True\n"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the server's threads from /proc")
def test_the_server_stays_single_threaded():
    execute_program("pass", FOCUS)  # the server has preloaded its modules before it serves
    pid, _ = forkserver._servers[ExecutorProfile().command]
    assert len(os.listdir(f"/proc/{pid}/task")) == 1


def _wait_for(path: Path) -> None:
    deadline = time.monotonic() + 10.0
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.01)


def _started(pids_path: Path) -> str:
    """Program text that writes its pid and a background child's to ``pids_path``, then sleeps."""
    return (
        "import os, subprocess, time\n"
        "child = subprocess.Popen(['sleep', '30'])\n"
        f"with open({str(pids_path)!r} + '.part', 'w') as fh:\n"
        "    fh.write(f'{os.getpid()} {child.pid}')\n"
        f"os.replace({str(pids_path)!r} + '.part', {str(pids_path)!r})\n"
        "time.sleep(30)\n"
    )


def _assert_ended(pids_path: Path) -> None:
    pids = [int(pid) for pid in pids_path.read_text().split()]
    deadline = time.monotonic() + 2.0
    while not all(map(process_ended, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert all(map(process_ended, pids)), "the program's process group outlived its run"
    finally:
        for pid in pids:
            if not process_ended(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_a_run_whose_server_dies_reports_127_and_the_next_run_restarts_it(tmp_path):
    pids_path = tmp_path / "pids"
    with ThreadPoolExecutor(max_workers=1) as pool:
        run = pool.submit(execute_program, _started(pids_path), FOCUS, ExecutorProfile(timeout_s=30.0))
        _wait_for(pids_path)
        server, _ = forkserver._servers[ExecutorProfile().command]
        os.kill(server, signal.SIGKILL)
        result = run.result(timeout=20.0)
    assert (result.exit_status, result.timed_out) == (127, False)
    assert result.duration_ms < 5000.0
    _assert_ended(pids_path)
    after = execute_program("print(2)", FOCUS)
    assert (after.exit_status, after.answer_line) == (0, "2")
    assert forkserver._servers[ExecutorProfile().command][0] != server


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_a_deadline_that_passes_between_the_replies_times_the_run_out(tmp_path, monkeypatch):
    pids_path = tmp_path / "pids"
    readings = 0

    def monotonic() -> float:
        """The clock ``execute_program`` reads at its start and before each
        reply; from its third reading, the one after the pid reply, it reads
        past the deadline once the program is running."""
        nonlocal readings
        readings += 1
        if readings < 3:
            return time.monotonic()
        _wait_for(pids_path)
        return time.monotonic() + 60.0

    monkeypatch.setattr(forkserver, "time", types.SimpleNamespace(monotonic=monotonic))
    result = execute_program(_started(pids_path), FOCUS, ExecutorProfile(timeout_s=30.0))
    assert (result.exit_status, result.timed_out) == (-1, True)
    _assert_ended(pids_path)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_a_status_the_program_writes_on_its_status_socket_is_its_exit(tmp_path):
    pids_path = tmp_path / "pids"
    program = _started(pids_path).replace(
        "time.sleep(30)\n",
        "import stat\n"
        "def is_socket(fd):\n"
        "    try:\n        return stat.S_ISSOCK(os.fstat(fd).st_mode)\n"
        "    except OSError:\n        return False\n"
        "os.write(next(fd for fd in range(3, 1024) if is_socket(fd)), b'%12d' % 7)\n"
        "time.sleep(30)\n",
    )
    result = execute_program(program, FOCUS, ExecutorProfile(timeout_s=30.0))
    assert (result.exit_status, result.timed_out) == (7, False)
    assert result.duration_ms < 5000.0
    _assert_ended(pids_path)


def _owner(code: str, extra_env: dict[str, str] | None = None, **kwargs) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that can import tablefocus and this module."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)]), **(extra_env or {})}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, **kwargs)


def test_a_replayed_trace_does_not_follow_the_owners_hash_seed(tmp_path):
    record_run(SET_CASE, tmp_path)
    code = (
        "from conftest import replay_run\n"
        "from test_forkserver import SET_CASE\n"
        f"print(replay_run(SET_CASE, {str(tmp_path)!r})[1].to_json())\n"
    )
    traces = []
    for seed, tz in (("1", "UTC"), ("2", "Asia/Tokyo"), ("3", "America/New_York")):
        completed = _owner(code, extra_env={"PYTHONHASHSEED": seed, "TZ": tz})
        assert completed.returncode == 0, completed.stderr
        traces.append(completed.stdout)
    assert traces[0] == traces[1] == traces[2]


def test_a_program_runs_in_utc():
    assert execute_program("import os, time; print(os.environ['TZ'], time.localtime(0).tm_hour)", FOCUS).answer_line == "UTC 0"


def test_a_programs_tz_takes_effect_as_in_a_fresh_interpreter(tmp_path):
    # The server set its zone from its own environment, which has no TZ.
    program = tmp_path / "program.py"
    program.write_text("import time\nprint(time.localtime(0).tm_hour, time.tzname[0])\n")
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOME": str(tmp_path), "TZ": "JST-9"}
    stdout, status, _, _ = forkserver.run(ExecutorProfile().command, str(program), env, 10.0)
    assert (stdout, status) == ("9 JST\n", 0)


def test_a_program_runs_with_hash_seed_0_and_its_own_environment():
    result = execute_program("import os, sys; print(sys.flags.hash_randomization, 'PYTHONHASHSEED' in os.environ)", FOCUS)
    assert result.answer_line == "0 False"


def test_an_isolated_interpreter_ignores_the_hash_seed():
    # -I ignores PYTHON* variables, so PYTHONHASHSEED=0 does not reach its programs.
    profile = ExecutorProfile(command=("python3", "-I"))
    assert execute_program("import sys; print(sys.flags.hash_randomization)", FOCUS, profile=profile).answer_line == "1"


def test_stdin_is_empty_not_the_callers():
    code = (
        "from tablefocus.reasoning import execute_program\n"
        "from test_forkserver import FOCUS\n"
        "print(execute_program('import sys; print(repr(sys.stdin.read()))', FOCUS).answer_line)\n"
    )
    completed = _owner(code, input="the caller's input")
    assert completed.stdout.strip() == "''", completed.stderr


def _spare(server: int, ran: int) -> int:
    """The idle child ``server`` forks once the run of pid ``ran`` has ended."""
    deadline = time.monotonic() + 10.0
    while True:
        children = Path(f"/proc/{server}/task/{server}/children").read_text().split()
        spares = [pid for pid in map(int, children) if pid != ran and not process_ended(pid)]
        if spares:
            return spares[0]
        assert time.monotonic() < deadline, "the server forked no spare"
        time.sleep(0.01)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_no_server_outlives_its_owner():
    code = (
        "import os\n"
        "from tablefocus import forkserver, reasoning\n"
        "from test_forkserver import FOCUS, _spare\n"
        "ran = int(reasoning.execute_program('import os; print(os.getpid())', FOCUS).answer_line)\n"
        "server = forkserver._servers[reasoning.ExecutorProfile().command][0]\n"
        "_spare(server, ran)\n"
        "children = open(f'/proc/{server}/task/{server}/children').read().split()\n"
        "print(server, *children)\n"
        "forkserver._stop_fork_servers()  # as at exit\n"
        "print(not any(os.path.exists(f'/proc/{pid}') for pid in children))\n"
    )
    completed = _owner(code)
    assert completed.returncode == 0, completed.stderr
    pids, reaped_first = completed.stdout.splitlines()
    server, *children = map(int, pids.split())
    assert children, "the server had no child to outlive it"
    assert reaped_first == "True", "the fork server left its children to be reaped by others"
    deadline = time.monotonic() + 2.0
    while not all(map(process_ended, [server, *children])) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert process_ended(server), "the fork server outlived its owner"
    assert all(map(process_ended, children)), "the fork server's children outlived its owner"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
@pytest.mark.parametrize("unreaped", [False, True], ids=["reaped", "unreaped"])
def test_a_spare_killed_from_outside_is_replaced_and_no_run_hears_of_it(unreaped):
    """With ``unreaped``, the server is stopped until the next run's request
    waits, so that run meets the dead spare before the server reaps it."""
    ran = int(execute_program("import os; print(os.getpid())", FOCUS).answer_line)
    server, _ = forkserver._servers[ExecutorProfile().command]
    spare = _spare(server, ran)
    if unreaped:
        os.kill(server, signal.SIGSTOP)
    try:
        os.kill(spare, signal.SIGKILL)
        if not unreaped:
            _spare(server, spare)  # the server has reaped it and forked its successor
        with ThreadPoolExecutor(max_workers=1) as pool:
            run = pool.submit(execute_program, "import os; print(os.getpid())", FOCUS)
            time.sleep(0.2)
            os.kill(server, signal.SIGCONT)
            result = run.result(timeout=20.0)
    finally:
        os.kill(server, signal.SIGCONT)
    assert (result.exit_status, result.timed_out) == (0, False)
    assert int(result.answer_line) not in (ran, spare)
