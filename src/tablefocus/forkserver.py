"""Program execution: one pre-started server per executor command runs each
program in a child it forked ahead; ``run`` is its client.

Sandbox. A program runs as ``python3 program.py`` would, from its own work
directory, with the environment it is given and ``/dev/null`` as stdin. Its
fork leads its own session and is capped at ``MEMORY_MB`` of address space,
``MAX_OUTPUT_BYTES`` per file it writes (stdout included, so a longer output
fails the run and no more is read back) and a CPU time one second past the
timeout; each limit is set on its own, so one the system refuses skips no
other, and a finite hard limit below ours is kept. Nothing caps how many
processes it starts. The run ends when the program exits or the wall-clock
timeout passes, and either way its process group is killed, so a background
process can neither outlive it nor hold it open. A timed-out run reports
exit status -1; a run whose interpreter cannot start, or whose server dies
before it reports the status, reports 127, as a shell would.

Server. ``run`` starts it as ``<command> forkserver.py <fd>``, ``<fd>`` its end
of a control socket, with the environment a program gets: ``PATH``, and
``HOME`` at the first program's work directory, so site, locale coercion,
stdout encoding and the user site come out as for a fresh interpreter.
``PYTHONHASHSEED=0``, dropped from the server's environment before it serves,
gives every program hash seed 0, unless ``-I`` or ``-E`` has the server ignore
it. The server preloads the ``PRELOADED`` modules, so a program that writes its
own ``csv.py`` or ``decimal.py`` and imports it gets the standard library's; it
imports no ``tablefocus`` module and stays single-threaded. While no program
runs, it keeps an idle child, the spare, in its own session, holding no fd of
the server's, waiting on its status socket; a run that finds no live spare gets
a child forked on the spot. The server exits, killing the programs still
running and ending and reaping the spare, when the owner's end of the control
socket closes: at the owner's exit, which reaps it, or death. A server that has
died is started again on the next run.

Protocol. A run sends one byte on the control socket with two fds: the server's
end of a per-run socket and the program's stdout file. It then writes the
request, ``marshal``-ed ``(program path, environment, timeout)``, on the
per-run socket and shuts down its writing side. The server passes both on to a
child the same way, on its status socket, and answers with the child's pid,
then once with the exit status ``Popen.returncode`` would give, each an int
right-aligned in ``REPLY_BYTES``; a run that gets no pid never started. The
child sends the status as the program finishes, after ``atexit`` and the flush;
one that ends otherwise (``os._exit``, a signal, a closed socket) gives it when
reaped. A status the program writes on that socket itself counts as its exit:
the owner then kills its process group.
"""

# _socket, not socket: socket.py and the selectors it loads would add about
# 0.3 MB to every process that runs programs.
import _socket
import _thread
import atexit
import builtins
import gc
import marshal
import math
import os
import resource
import signal
import sys
import time
from importlib.machinery import SourceFileLoader

# Modules the server imports before it serves. Each is one that recorded
# programs import: csv by every program, since the table comes as a CSV file,
# and decimal by sums of money. A module that starts a thread or holds state
# a fork would share (numpy with OpenBLAS, for one) must not join them.
PRELOADED = ("csv", "decimal")
MEMORY_MB = 512  # address-space cap of a generated program
MAX_OUTPUT_BYTES = 1024 * 1024  # cap on each file a generated program writes, stdout included
REPLY_BYTES = 12


def _limit_resources(timeout_s: float) -> None:
    """Set the sandbox's limits; a finite hard limit below ours is kept, since only root may raise it."""
    for which, limit in (
        (resource.RLIMIT_AS, MEMORY_MB * 1024 * 1024),
        (resource.RLIMIT_FSIZE, MAX_OUTPUT_BYTES),
        (resource.RLIMIT_CPU, math.ceil(timeout_s) + 1),
    ):
        try:
            hard = resource.getrlimit(which)[1]
            if hard != resource.RLIM_INFINITY:
                limit = min(limit, hard)
            resource.setrlimit(which, (limit, limit))
        except (ValueError, OSError):
            pass


def _exit_status(code: object) -> int:
    """The exit status CPython gives ``SystemExit(code)``: an int that fits a
    C long taken mod 256 (any other int as -1), any other value printed."""
    if code is None:
        return 0
    if isinstance(code, int):
        return (code if -(2**63) <= code < 2**63 else -1) & 0xFF
    if sys.stderr is not None:
        try:
            print(code, file=sys.stderr)
        except (OSError, ValueError):  # CPython ignores a failure to print it
            pass
    return 1


def _run_main(path: str) -> int:
    """Run ``path`` as ``python3 path`` runs it and end as CPython ends.

    After the program come the threading shutdown, ``atexit`` and the flush
    of stdout and stderr (a failed flush gives 120), as in
    ``Py_FinalizeEx``. The rest of the teardown is skipped: in a fork it
    would copy most of the server's memory for nothing.
    """
    main = type(sys)("__main__")
    main.__dict__.update(__annotations__={}, __builtins__=builtins, __file__=path, __cached__=None)
    main.__loader__ = SourceFileLoader("__main__", path)
    sys.modules["__main__"] = main
    sys.argv = [path]
    if not (sys.flags.isolated or getattr(sys.flags, "safe_path", False)):  # -I and -P leave the script's directory out
        sys.path[0] = os.path.dirname(path)
    status, interrupted = 0, False
    try:
        with open(path, "rb") as fh:
            code = compile(fh.read(), path, "exec", dont_inherit=True)
        exec(code, main.__dict__)
    except SystemExit as exc:
        status = _exit_status(exc.code)
    except BaseException as exc:  # whatever the program lets escape ends it, as in CPython
        interrupted = type(exc) is KeyboardInterrupt
        sys.excepthook(type(exc), exc, exc.__traceback__)
        status = 1
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not getattr(stream, "closed", False):
                stream.flush()
        except (OSError, ValueError):
            status = 120
    if interrupted:  # CPython re-raises SIGINT so the status tells of the interrupt
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    return status


def _child(sock) -> None:
    """The forked child: set up, take a run from ``sock``, run it, send its status there and exit."""
    status = 127
    try:
        os.setsid()
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        os.closerange(3, sock.fileno())  # every fd the server holds, each run's socket included
        os.closerange(sock.fileno() + 1, os.sysconf("SC_OPEN_MAX"))
        os.register_at_fork(after_in_child=sock.close)  # a fork the program makes ends as it did before
        import socket  # loaded already: this is a fork of ``serve``
        out = socket.recv_fds(sock, 1, 1)[1]
        path, env, timeout_s = marshal.loads(b"".join(iter(lambda: sock.recv(65536), b"")))
        _limit_resources(timeout_s)
        os.dup2(out[0], 1)
        os.close(out[0])
        os.chdir(os.path.dirname(path))
        os.environ.update(env)
        time.tzset()  # the server's zone was set from its own environment
        _reply(sock, status := _run_main(path))
    finally:
        os._exit(status)


def _reply(conn, value: int) -> bool:
    """Send ``value`` to the run's caller; False if it has gone."""
    try:
        conn.sendall(b"%*d" % (REPLY_BYTES, value))
    except OSError:
        return False
    return True


def serve(ctrl_fd: int) -> None:
    """Hand each request to a forked child until the owner's end of the control socket closes."""
    import select  # here, not at the top: ``run`` needs only ``_socket``
    import socket

    for name in PRELOADED:
        __import__(name)
    os.environ.pop("PYTHONHASHSEED", None)  # it seeded this interpreter; a program's environment is as given
    ctrl = socket.socket(fileno=ctrl_fd)
    wake_r, wake_w = socket.socketpair()
    wake_w.setblocking(False)
    signal.set_wakeup_fd(wake_w.fileno())
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)  # only so SIGCHLD wakes the select
    runs = {}  # pid of each child given a run -> the run's socket, closed once answered, until reaped
    statuses = {}  # status socket of each child given a run -> its pid, until read
    spare = None  # (pid, status socket) of the idle child that takes the next run

    def fork() -> tuple[int, socket.socket] | None:
        ours, theirs = socket.socketpair()
        with theirs:
            gc.freeze()  # the child's collections then skip, and do not copy, the server's objects
            try:
                pid = os.fork()
            except OSError:
                ours.close()
                return None
            if pid == 0:
                _child(theirs)
        return pid, ours

    def answer(conn: socket.socket | None, status: int) -> None:
        if conn is not None:
            with conn:  # so a second answer goes nowhere
                _reply(conn, status)

    while True:
        if spare is None and not runs:  # not while a child given a run lives: a fork would slow it
            spare = fork()
        ready = select.select([ctrl, wake_r, *statuses], [], [])[0]
        if ctrl in ready:  # ahead of the reaping, so a test can hand a run to a spare that died unreaped
            data, fds, _, _ = socket.recv_fds(ctrl, 1, 2)
            if not data:
                for pid in runs:
                    try:
                        os.killpg(pid, signal.SIGKILL)
                    except OSError:
                        pass
                if spare is not None:
                    spare[1].close()  # which ends it
                    os.waitpid(spare[0], 0)
                return
            conn, out = socket.socket(fileno=fds[0]), fds[1]
            try:
                request = b"".join(iter(lambda: conn.recv(65536), b""))
                spare, children = None, (child or fork() for child in (spare, None))
                for pid, sock in filter(None, children):  # a spare that has died since its fork is replaced, unseen
                    try:
                        socket.send_fds(sock, [b"\0"], [out])
                        sock.sendall(request)
                        sock.shutdown(socket.SHUT_WR)
                        break
                    except OSError:
                        sock.close()
                else:
                    raise ChildProcessError("no child took the run")
            except OSError:  # a run cut short, or no child took it
                conn.close()
                continue
            finally:
                os.close(out)
            runs[pid], statuses[sock] = conn, pid
            if not _reply(conn, pid):
                os.kill(pid, signal.SIGKILL)
        for sock in statuses.keys() & ready:  # a status sent at finish, or a socket closed without one
            with sock:
                try:
                    answer(runs.get(statuses.pop(sock)), int(sock.recv(REPLY_BYTES)))
                except (OSError, ValueError):  # the status comes by reaping
                    pass
        if wake_r in ready:
            wake_r.recv(4096)
            try:
                while (reaped := os.waitpid(-1, os.WNOHANG))[0]:
                    if spare is not None and reaped[0] == spare[0]:  # killed while idle: no run hears of it
                        spare[1].close()
                        spare = None
                    answer(runs.pop(reaped[0], None), os.waitstatus_to_exitcode(reaped[1]))
            except ChildProcessError:  # no child left
                pass


_servers: dict[tuple[str, ...], tuple[int, _socket.socket]] = {}  # command -> (pid, control socket)
_servers_lock = _thread.allocate_lock()


def _fork_server(command: tuple[str, ...], env: dict[str, str]) -> _socket.socket:
    """The control socket of ``command``'s fork server, started in ``env`` if none is running."""
    with _servers_lock:
        if command in _servers:
            pid, ctrl = _servers[command]
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    return ctrl
            except ChildProcessError:
                pass
            ctrl.close()
            del _servers[command]
        ours, theirs = _socket.socketpair(_socket.AF_UNIX, _socket.SOCK_STREAM)
        try:
            os.set_inheritable(theirs.fileno(), True)
            stdio = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY if fd else os.O_RDONLY, 0) for fd in range(3)]
            argv = [*command, __file__, str(theirs.fileno())]
            pid = os.posix_spawnp(command[0], argv, env, file_actions=stdio, setsid=True)
        except OSError:
            ours.close()
            raise
        finally:
            theirs.close()
        _servers[command] = pid, ours
        # Once, and not at import: the server runs this file, and its forks inherit no hook.
        atexit.unregister(_stop_fork_servers)
        atexit.register(_stop_fork_servers)
        return ours


def _stop_fork_servers() -> None:
    """Close each server's control socket, which ends it, and reap it."""
    for pid, ctrl in _servers.values():
        ctrl.close()
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def run(command: tuple[str, ...], path: str, env: dict[str, str], timeout_s: float) -> tuple[str, int, float, bool]:
    """Run ``path`` in a fork of ``command``'s server with ``env`` as its
    environment: its stdout, exit status, wall time in ms and whether it timed out."""
    import struct  # here, so the server, which runs this file, loads neither
    import tempfile

    # An unnamed file: the program cannot replace or delete it.
    with tempfile.TemporaryFile(dir=os.path.dirname(path)) as out:
        start = time.monotonic()
        replies: list[int] = []  # the program's pid, then its exit status
        timed_out = False
        conn, theirs = _socket.socketpair(_socket.AF_UNIX, _socket.SOCK_STREAM)
        try:
            try:
                ctrl = _fork_server(command, {"PATH": env["PATH"], "HOME": env["HOME"], "PYTHONHASHSEED": "0"})
                fds = struct.pack("2i", theirs.fileno(), out.fileno())
                ctrl.sendmsg([b"\0"], [(_socket.SOL_SOCKET, _socket.SCM_RIGHTS, fds)])
                theirs.close()
                conn.sendall(marshal.dumps((path, env, timeout_s)))
                conn.shutdown(_socket.SHUT_WR)
                while len(replies) < 2:
                    remaining = start + timeout_s - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError
                    conn.settimeout(remaining)
                    reply = conn.recv(REPLY_BYTES, _socket.MSG_WAITALL)
                    if len(reply) < REPLY_BYTES:
                        break  # the server has gone
                    replies.append(int(reply))
            except TimeoutError:
                timed_out = True
            except OSError:  # no interpreter to start, or the server has gone
                pass
            duration = (time.monotonic() - start) * 1000.0
            if replies:
                try:
                    os.killpg(replies[0], signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if timed_out and replies:
                conn.settimeout(None)
                try:
                    conn.recv(REPLY_BYTES, _socket.MSG_WAITALL)  # returns once the program has ended
                except OSError:
                    pass
        finally:
            conn.close()
            theirs.close()
        out.seek(0)
        # Decoded with universal newlines, as a text-mode pipe would be.
        stdout = out.read(MAX_OUTPUT_BYTES).decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")
    exit_status = -1 if timed_out else replies[1] if len(replies) == 2 else 127
    return stdout, exit_status, duration, timed_out


if __name__ == "__main__":
    serve(int(sys.argv[1]))
