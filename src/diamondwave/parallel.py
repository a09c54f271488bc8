"""One job beside the caller, in a forked child when two CPUs may run it.

`forked(job, error)` runs job, a closure returning any picklable result, in
one forked child while the caller works on; the child pickles the result
down a pipe, the bytes of its arrays out of band.  It forks whenever the
process's affinity mask holds two CPUs, busy or not.  With one CPU, or
without the fork start method, the job runs in this process when its
result is asked for.  The full route's epsilon gate
(`recovery.full_path_interaction`) and the chart-jet fit (`beam.ChartJets`)
use it.
"""

import contextlib
import os
import pickle

import numpy as np


@contextlib.contextmanager
def forked(job, error):
    """Run `job` beside the caller; yields `wait`, which returns job()'s
    result.

    With at least two CPUs and the fork start method, job starts now in one
    forked child, which sends its result down a pipe (`_send`); `wait`
    reads each array's bytes straight into a fresh buffer (`_receive`) and
    re-raises an exception of the child's with its type and message.  A
    child that ends without a result, or whose exception does not pickle,
    raises the caller's exception class `error`.
    Otherwise `wait` is job itself, run when called.  Leaving the block
    kills the child, which has nothing left to do once `wait` has read it,
    and reaps it, so a caller that fails first leaves no process behind.
    """
    import multiprocessing
    # the job is a closure over this process's arrays: only a fork can run
    # it without sending them
    if "fork" not in multiprocessing.get_all_start_methods() \
            or not hasattr(os, "sched_getaffinity") \
            or len(os.sched_getaffinity(0)) < 2:
        yield job
        return
    rfd, wfd = os.pipe()
    with open(rfd, "rb") as pipe:
        try:
            child = multiprocessing.get_context("fork").Process(
                target=_send, args=(job, wfd, error))
            child.start()
        finally:
            os.close(wfd)
        try:
            yield lambda: _receive(pipe, child, error)
        finally:
            child.kill()
            child.join()


def _send(job, fd, error):
    """The child's side of `forked`: pickles (error, result) at protocol 5
    with the data of contiguous arrays kept out of band, and writes to the
    pipe `fd` the pickle of (buffer sizes, that pickle), then each buffer's
    bytes.  An exception of job's, an interrupt too, is the error, which
    the parent raises; one that does not pickle becomes an `error` carrying
    its repr."""
    buffers = []
    try:
        body = pickle.dumps((None, job()), protocol=5,
                            buffer_callback=buffers.append)
    except BaseException as exc:
        buffers = []
        try:
            body = pickle.dumps((exc, None))
            pickle.loads(body)
        except Exception:
            body = pickle.dumps((error(repr(exc)), None))
    raws = [buffer.raw() for buffer in buffers]
    with open(fd, "wb") as out:
        pickle.dump(([raw.nbytes for raw in raws], body), out)
        for raw in raws:
            out.write(raw)


def _receive(pipe, child, error):
    """job()'s result as `_send` wrote it to `pipe`, or its error raised;
    `error` should the pipe end first."""
    try:
        sizes, body = pickle.load(pipe)
        buffers = [np.empty(size, np.uint8) for size in sizes]
        if any(pipe.readinto(buffer) < buffer.size for buffer in buffers):
            raise EOFError
    except (EOFError, pickle.UnpicklingError):
        child.join()
        raise error(f"forked process ended early "
                    f"(exit code {child.exitcode})") from None
    exc, result = pickle.loads(body, buffers=buffers)
    if exc is not None:
        raise exc
    return result
