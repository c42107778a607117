"""Independent jobs on forked worker processes, one per CPU.

Dataset chunks and experiment network fits are each seeded by their own
key, so they can run in any process and in any order and give the same
bytes.  fan_out runs such jobs on workers that each own one CPU.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import sys


def fan_out(jobs: list, fork: bool) -> list:
    """Call every job (a function of no arguments) once and return the
    results in job order: on min(CPUs, len(jobs)) forked worker processes
    where ``fork`` is true, or in order in this process where it is false,
    where that count is one, or where the platform has no fork.  A dataset
    build passes ``fork`` from its work against the workers' start-up, about
    10 ms, and the cost of pickling the results back.  A ROC family's fits
    always pay for it: each job is one experiments.fit, whose network comes
    back pickled as its layer sizes and parameters, and the caller saves it.

    Each job must seed its own generator and write no file that another job
    writes, so the bytes do not depend on the worker count or the order.
    The workers inherit the jobs and their data through the fork.  Through
    one pair of pipes per worker, job indices go out, one at a time to
    whichever worker is free, and the pickled results come back.  Worker w
    binds itself to usable_cpus()[w]: in a cpuset without load balancing the
    scheduler would otherwise keep new processes on the CPU they forked on.
    Inside a worker, usable_cpus() is then that one CPU, so a fan_out there
    runs in-process.  A failing job's exception is re-raised here, chained
    to its traceback in the worker, after the other workers are stopped; no
    worker outlives the call.  Forking is safe because no other thread is at
    work: the package starts none, and BLAS computes on one thread (OpenBLAS
    stops its idle pool at a fork).
    """
    cpus = usable_cpus()
    workers = min(len(cpus), len(jobs))
    if not fork or workers <= 1 or not hasattr(os, "fork"):
        return [job() for job in jobs]
    results, pipes, pids = [None] * len(jobs), {}, []  # pipes: reader -> writer
    try:
        for w in range(workers):
            down, up = os.pipe(), os.pipe()  # job indices, replies
            _flush_std_streams()  # or the worker writes them out a second time
            pid = os.fork()
            if pid == 0:
                _worker(jobs, cpus[w], down, up, pipes)
            pids.append(pid)
            os.close(down[0])
            os.close(up[1])
            pipes[open(up[0], "rb")] = open(down[1], "wb")
        todo, busy = iter(range(len(jobs))), {}  # busy: reader -> its job
        with selectors.DefaultSelector() as ready:
            for reader, writer in pipes.items():
                ready.register(reader, selectors.EVENT_READ)
                busy[reader] = next(todo)
                _send(writer, busy[reader])
            while busy:
                for key, _ in ready.select():
                    reader = key.fileobj
                    try:
                        done, value = pickle.load(reader)
                    except EOFError:
                        raise RuntimeError("a fan-out worker exited unexpectedly") from None
                    if not done:
                        err, trace = value
                        raise err from RuntimeError(f"in a fan-out worker:\n{trace}")
                    results[busy.pop(reader)] = value
                    index = next(todo, None)
                    if index is not None:
                        busy[reader] = index
                        _send(pipes[reader], index)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for reader, writer in pipes.items():
            writer.close()  # an idle worker reads the end of file and returns
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return results


def usable_cpus() -> list:
    """The CPUs this process may run on, in order, one fan_out worker for
    each; where the platform has no CPU affinity, None for each of
    os.cpu_count(), and the workers stay unbound."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return [None] * (os.cpu_count() or 1)


def _worker(jobs: list, cpu: int | None, down, up, others: dict) -> None:
    """A forked worker's life; it ends the process and never returns.  Bound
    to cpu, it runs the job of each index read from the pipe down and writes
    (True, its result) or (False, (its exception, its traceback)) to the
    pipe up, until the end of file.  others holds the pipes of the workers
    forked before it."""
    status = 1
    try:
        for reader, writer in others.items():
            reader.close()
            writer.close()
        os.close(down[1])
        os.close(up[0])
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        with open(down[0], "rb") as indices, open(up[1], "wb") as replies:
            while True:
                try:
                    index = pickle.load(indices)
                except EOFError:
                    break
                try:
                    reply = (True, jobs[index]())
                except Exception as err:  # noqa: BLE001 - re-raised in the parent
                    import traceback

                    reply = (False, (err, traceback.format_exc()))
                _send(replies, reply)
        status = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(status)


def _send(stream, value) -> None:
    """Write value as one whole pickle, or nothing where it cannot be pickled."""
    stream.write(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    stream.flush()


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
