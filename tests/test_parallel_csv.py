"""The CSV writers on more than one process.

The worker count is set through the usable-CPU count that the writer reads
(``os.sched_getaffinity``), and forks are counted. Small files need a lower
fork threshold to fork at all, so those tests lower the module constant; the
2000-sample case runs at the real one.
"""

import os
import threading

import numpy as np
import pytest

from maxent_steer import specio
from maxent_steer.specio import CSV_CHUNK, write_ellipse_csv, write_trajectory_csv

from test_streamed_output import mixed_values, reference_ellipse_csv, reference_trajectory_csv

COUNTS = [1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK, 3 * CSV_CHUNK + 5]

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture()
def forks(monkeypatch):
    """Count the forks of this process and return a setter for the usable CPUs."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)), raising=False)
        calls.clear()
        return calls

    return set_cpus


@pytest.fixture()
def low_threshold(monkeypatch):
    monkeypatch.setattr(specio, "_FORK_MIN_VALUES", 1)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("m", [1, 3])
def test_trajectory_bytes_same_for_any_worker_count(tmp_path, forks, low_threshold, n, m):
    rng = np.random.default_rng(10 * n + m)
    for count in COUNTS:
        states = mixed_values(rng, (count, 3, n))
        controls = mixed_values(rng, (count, 2, m))
        reference_trajectory_csv(str(tmp_path / "ref.csv"), states, controls)
        for workers in (1, 2, 3):
            calls = forks(workers)
            write_trajectory_csv(str(tmp_path / "new.csv"), states, controls)
            blocks = -(-count // CSV_CHUNK)
            assert len(calls) == min(workers, blocks) - 1, (count, workers)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), (count, workers)
            assert_no_children()


def test_ellipse_bytes_same_for_any_worker_count(tmp_path, forks, low_threshold):
    rng = np.random.default_rng(3)
    count = 3 * CSV_CHUNK + 1
    angles, points = mixed_values(rng, (count,)), mixed_values(rng, (count, 2))
    reference_ellipse_csv(str(tmp_path / "ref.csv"), angles, points)
    for workers in (1, 2, 3):
        calls = forks(workers)
        write_ellipse_csv(str(tmp_path / "new.csv"), angles, points)
        assert len(calls) == workers - 1
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), workers


def test_large_file_forks_at_the_real_threshold(tmp_path, forks):
    rng = np.random.default_rng(4)
    states, controls = rng.standard_normal((2000, 51, 2)), rng.standard_normal((2000, 50, 1))
    outputs = []
    for workers in (1, 2, 3):
        calls = forks(workers)
        write_trajectory_csv(str(tmp_path / f"w{workers}.csv"), states, controls)
        assert len(calls) == workers - 1
        outputs.append((tmp_path / f"w{workers}.csv").read_bytes())
    # one process is the serial writer, held to the per-value reference in test_streamed_output
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert_no_children()


def test_small_files_stay_in_process(tmp_path, forks):
    calls = forks(8)
    rng = np.random.default_rng(5)
    # a 10-sample pinned run and a 361-point ellipse
    write_trajectory_csv(str(tmp_path / "pin.csv"), rng.standard_normal((10, 51, 2)), rng.standard_normal((10, 50, 1)))
    write_ellipse_csv(str(tmp_path / "ellipse.csv"), np.zeros(361), np.zeros((361, 2)))
    assert calls == []


def test_worker_count_rules(monkeypatch, forks):
    forks(4)
    minimum = specio._FORK_MIN_VALUES
    assert specio._csv_workers(minimum - 1) == 1
    assert specio._csv_workers(2 * minimum) == 2
    assert specio._csv_workers(100 * minimum) == 4
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert specio._csv_workers(100 * minimum) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert specio._csv_workers(100 * minimum) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert specio._csv_workers(100 * minimum) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delattr(os, "fork")
    assert specio._csv_workers(100 * minimum) == 1


def _values(lo, hi):
    return np.arange(lo, hi, dtype=np.float64)[:, None]


@pytest.mark.parametrize("workers", [2, 3])
def test_failing_worker_makes_the_writer_raise(tmp_path, forks, low_threshold, workers):
    parent = os.getpid()

    def records(lo, hi):
        if os.getpid() != parent and lo >= CSV_CHUNK:
            raise RuntimeError("block failed in a worker")
        return _values(lo, hi)

    forks(workers)
    with pytest.raises(RuntimeError, match="CSV worker"):
        specio._write_csv(str(tmp_path / "x.csv"), "v", "%.17g\n", 6 * CSV_CHUNK, records)
    assert_no_children()


@pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
def test_failure_in_the_writing_process_reaps_the_workers(tmp_path, forks, low_threshold, error):
    parent = os.getpid()

    def records(lo, hi):
        if os.getpid() == parent and lo >= 3 * CSV_CHUNK:
            raise error("block failed in the writer")
        return _values(lo, hi)

    forks(3)
    with pytest.raises(error):
        specio._write_csv(str(tmp_path / "x.csv"), "v", "%.17g\n", 40 * CSV_CHUNK, records)
    assert_no_children()


def test_non_finite_value_leaves_existing_file_untouched(tmp_path, forks, low_threshold):
    path = tmp_path / "paths.csv"
    path.write_text("keep me\n")
    states = np.zeros((3 * CSV_CHUNK, 3, 2))
    states[-1, -1, 0] = np.nan
    calls = forks(3)
    with pytest.raises(ValueError, match="non-finite"):
        write_trajectory_csv(str(path), states, np.zeros((3 * CSV_CHUNK, 2, 1)))
    assert path.read_text() == "keep me\n"
    assert calls == []


def test_unwritable_path_starts_no_worker(tmp_path, forks, low_threshold):
    calls = forks(3)
    with pytest.raises(OSError):
        write_trajectory_csv(str(tmp_path / "missing" / "x.csv"), np.zeros((3 * CSV_CHUNK, 3, 2)), np.zeros((3 * CSV_CHUNK, 2, 1)))
    assert calls == []
