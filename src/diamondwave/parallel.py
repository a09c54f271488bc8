"""One job beside the caller, in a forked child when two CPUs are free.

`forked(job, error)` runs job, a closure returning a pair (value, array),
in one forked child while the caller works on; the child sends its result
down a pipe, the array as raw bytes.  With one CPU, or without the fork
start method, the job runs in this process when its result is asked for.
The full route's epsilon gate (`recovery.full_path_interaction`) and the
chart-jet fit (`beam.ChartJets`) use it.
"""

import contextlib
import os
import pickle
import struct

import numpy as np

_HEAD = struct.Struct("<Q")     # byte length of a pickled head in the pipe


@contextlib.contextmanager
def forked(job, error):
    """Run `job` beside the caller; yields `wait`, which returns job()'s
    result, a pair (value, array).

    With at least two CPUs and the fork start method, job starts now in one
    forked child, which sends its result down a pipe (`_send`); `wait`
    reads the array's bytes straight into a fresh array (`_receive`) and
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
    with open(rfd, "rb", buffering=0) as pipe:
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
    """The child's side of `forked`: writes to the pipe `fd` the length of
    a pickled head (error, value, dtype, shape), the head, and then the
    raw bytes of the array.  An exception of job's, an interrupt too, is
    the head's error, which the parent raises; one that does not pickle
    becomes an `error` carrying its repr."""
    array = None
    try:
        value, array = job()
        array = np.ascontiguousarray(array)
        head = pickle.dumps((None, value, array.dtype, array.shape))
    except BaseException as exc:
        try:
            head = pickle.dumps((exc, None, None, None))
            pickle.loads(head)
        except Exception:
            head = pickle.dumps((error(repr(exc)), None, None, None))
    with open(fd, "wb") as out:
        out.write(_HEAD.pack(len(head)) + head)
        if array is not None:
            out.write(array.reshape(-1).view(np.uint8))


def _receive(pipe, child, error):
    """(value, array) as `_send` wrote them to `pipe`, or its error raised."""
    size = bytearray(_HEAD.size)
    _read_into(pipe, size, child, error)
    head = bytearray(_HEAD.unpack(size)[0])
    _read_into(pipe, head, child, error)
    exc, value, dtype, shape = pickle.loads(head)
    if exc is not None:
        raise exc
    array = np.empty(shape, dtype)
    _read_into(pipe, array.reshape(-1).view(np.uint8), child, error)
    return value, array


def _read_into(pipe, buf, child, error):
    """Fill the bytes of `buf` from `pipe`; `error` should the pipe end
    first."""
    view = memoryview(buf)
    done = 0
    while done < len(view):
        got = pipe.readinto(view[done:])
        if not got:
            child.join()
            raise error(f"forked process ended early "
                        f"(exit code {child.exitcode})")
        done += got
