import os
import threading

import hostprofile


def test_paths_bucket_by_first_package_under_repro():
    sep = os.sep
    root = f"{sep}checkout{sep}src{sep}repro{sep}"
    assert hostprofile.bucket_of_path(root + f"dso{sep}layer.py") == "dso"
    assert hostprofile.bucket_of_path(
        root + f"simulation{sep}kernel.py") == "simulation"
    assert hostprofile.bucket_of_path(
        root + f"dso{sep}replication{sep}engine.py") == "dso"
    assert hostprofile.bucket_of_path(root + "config.py") == "repro"
    assert hostprofile.bucket_of_path(
        f"{sep}lib{sep}site-packages{sep}numpy{sep}core{sep}x.py") == "numpy"
    assert hostprofile.bucket_of_path(f"{sep}lib{sep}pickle.py") == "pickle"
    assert hostprofile.bucket_of_path(
        f"{sep}lib{sep}threading.py") == "threading"
    assert hostprofile.bucket_of_path(f"{sep}lib{sep}heapq.py") == "python"
    assert hostprofile.bucket_of_path(hostprofile.__file__) == "perf"


def test_builtins_bucket_by_description_or_fall_to_the_caller():
    bucket = hostprofile.bucket_of_builtin
    assert bucket("<method 'acquire' of '_thread.lock' objects>") \
        == hostprofile.LOCK_WAIT
    assert bucket("<method 'release' of '_thread.lock' objects>") \
        == "threading"
    assert bucket("<built-in method _pickle.dumps>") == "pickle"
    assert bucket("<method 'dot' of 'numpy.ndarray' objects>") == "numpy"
    assert bucket("<built-in method _heapq.heappush>") is None


def test_every_thread_is_profiled_and_run_is_restored():
    original = threading.Thread.run
    profiler = hostprofile.ThreadProfiler()
    profiler.install()
    assert profiler.installed and threading.Thread.run is not original

    gate = threading.Lock()
    gate.acquire()

    def work():
        sorted(range(50_000), key=lambda v: -v)
        gate.acquire()

    thread = threading.Thread(target=work)
    thread.start()
    gate.release()
    thread.join(timeout=30)
    assert not thread.is_alive()
    profiler.uninstall()

    assert threading.Thread.run is original and not profiler.installed
    buckets = profiler.buckets()
    assert buckets["perf"] > 0          # this file lives under perf/
    assert hostprofile.LOCK_WAIT in buckets
