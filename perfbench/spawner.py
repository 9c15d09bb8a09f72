"""Start the benchmark's child processes from a small process of their own.

Linux carries a parent's high-water RSS into a child across fork and exec, so a
child started directly by the benchmark, which holds numpy and the datasets,
would report at least the benchmark's own peak as its ru_maxrss. Children
started from this process report their own, since this process stays small.

Protocol: one JSON request per line on stdin, {"argv": [...], "log": PATH,
"timeout": SECONDS}; one JSON reply per line on stdout, {"wall_s": ...,
"maxrss_kib": ..., "code": ...}. The child's stdout and stderr go to PATH, and
the child is killed once it runs past the timeout. Exits at end of input.
"""
import json
import os
import signal
import sys
import time

child = 0


def kill_child(signum, frame):
    if child:
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:  # reaped just before the alarm fired
            pass
    if signum == signal.SIGTERM:
        if child:
            os.waitpid(child, 0)
        sys.exit(1)


def run(argv: list, log: str, timeout: float) -> dict:
    global child
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
    start = time.perf_counter()
    try:
        child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    except OSError as exc:
        os.write(fd, f"cannot start {argv[0]}: {exc}\n".encode())
        return {"wall_s": 0.0, "maxrss_kib": 0, "code": 127}
    finally:
        os.close(fd)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(child, 0)
    finally:
        wall = time.perf_counter() - start
        child = 0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "code": os.waitstatus_to_exitcode(status)}


def main() -> None:
    signal.signal(signal.SIGALRM, kill_child)
    signal.signal(signal.SIGTERM, kill_child)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
