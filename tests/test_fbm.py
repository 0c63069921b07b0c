import io
import sys
import threading
import time

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fbmchaos import cli, experiments, fbm
from fbmchaos.errors import CapacityError, ConsistencyError, DomainError
from fbmchaos.experiments import _chunked_replicas
from fbmchaos.fbm import SimSpec, dump_csv, simulate_batch
from fbmchaos.gaussian import HurstModel, cov_rect, rho


def increment_cov_matrix(spec):
    """Toeplitz covariance mesh^{2H} rho(|i-j|) of the fine-grid increments,
    the law the sampler must reproduce (a test oracle; no command needs it)."""
    H = spec.model.H
    i = np.arange(spec.size)
    return spec.mesh ** (2 * H) * rho(i, H)[np.abs(i[:, None] - i[None, :])]


def spec(H=0.4, d=2, m=4, refine=1, seed=7, replica=0):
    return SimSpec(model=HurstModel(H, d), m=m, refine=refine, seed=seed, replica=replica)


def one(sp):
    """Increments (d, size) of the single replica sp names."""
    return simulate_batch(sp, 1)[0]


class TestSimSpec:
    def test_capacity(self):
        with pytest.raises(CapacityError):
            SimSpec(model=HurstModel(0.4, 2), m=10, refine=64)

    def test_invalid(self):
        with pytest.raises(DomainError):
            SimSpec(model=HurstModel(0.4, 2), m=0)
        with pytest.raises(DomainError):
            SimSpec(model=HurstModel(0.4, 2), m=3, refine=0)

    def test_mesh(self):
        sp = spec(m=5, refine=4)
        assert sp.mesh == pytest.approx(2 ** -5 / 4)
        assert sp.size == 4 * 32


class TestIncrementCov:
    def test_diagonal_and_lag1(self):
        sp = spec(H=0.4, m=3, refine=2)
        S = increment_cov_matrix(sp)
        mesh = sp.mesh
        np.testing.assert_allclose(np.diag(S), mesh ** 0.8)
        assert S[0, 1] / mesh ** 0.8 == pytest.approx(rho(1, 0.4), rel=1e-13)

    def test_matches_cov_rect(self):
        sp = spec(H=0.45, m=3, refine=1)
        S = increment_cov_matrix(sp)
        t = sp.times
        for i in (0, 2, 7):
            for j in (0, 3, 7):
                expect = cov_rect(((t[i], t[i + 1]), (t[j], t[j + 1])), 0.45)
                assert S[i, j] == pytest.approx(expect, abs=1e-14)


class TestSimulate:
    def test_deterministic(self):
        assert np.array_equal(one(spec()), one(spec()))

    def test_distinct_replicas_and_components(self):
        a = one(spec(replica=0))
        b = one(spec(replica=1))
        assert not np.allclose(a, b)
        assert not np.allclose(a[0], a[1])

    def test_starts_at_zero(self, tmp_path):
        # the simulate command's path starts at 0 and ends at the increments'
        # sum; its defaults are H = 0.4, d = 2, refine = 1, replica = 0
        assert cli.main(["simulate", "--m", "4", "--seed", "7",
                         "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "path.csv", delimiter=",", skiprows=1)
        assert np.all(rows[0] == 0)
        np.testing.assert_allclose(rows[-1, 1:], one(spec()).sum(axis=1))

    def test_batch_matches_single(self):
        sp = spec(m=3)
        batch = simulate_batch(sp, 3)
        for r in range(3):
            single = one(spec(m=3, replica=r))
            np.testing.assert_allclose(batch[r], single, atol=1e-12)

    def test_empirical_covariance_exact_law(self):
        # grid of 16 increments, 10^4 replicas: every covariance entry within
        # 5 standard errors of the closed form
        sp = spec(H=0.4, m=4, refine=1, seed=11)
        N = 10 ** 4
        X = simulate_batch(sp, N)[:, 0, :]  # one component is enough here
        S = increment_cov_matrix(sp)
        emp = X.T @ X / N
        # SE of a covariance entry of jointly Gaussian pairs
        se = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S ** 2) / N)
        assert np.all(np.abs(emp - S) < 5 * se)

    def test_brownian_lag1_uncorrelated(self):
        sp = spec(H=0.5, m=6, seed=3)
        N = 10 ** 4
        X = simulate_batch(sp, N)[:, 0, :]
        var = sp.mesh
        lag1 = np.mean(X[:, :-1] * X[:, 1:], axis=0)
        se = var / np.sqrt(N)
        assert np.all(np.abs(lag1) < 5 * se)

    def test_cross_replica_streams_uncorrelated(self):
        sp = spec(H=0.4, m=6, seed=5)
        N = 2000
        X = simulate_batch(sp, N)[:, 0, 0]
        Y = simulate_batch(spec(H=0.4, m=6, seed=5, replica=N), N)[:, 0, 0]
        r = np.corrcoef(X, Y)[0, 1]
        assert abs(r) < 5 / np.sqrt(N)


class TestCoarseLaw:
    def test_coarse_law(self):
        # coarse empirical covariance matches the coarse closed form
        sp = spec(H=0.4, m=6, seed=13)
        N = 10 ** 4
        X = simulate_batch(sp, N)[:, 0, :]
        Xc = X.reshape(N, 16, 4).sum(axis=2)
        Sc = increment_cov_matrix(spec(H=0.4, m=4))
        emp = Xc.T @ Xc / N
        se = np.sqrt((np.outer(np.diag(Sc), np.diag(Sc)) + Sc ** 2) / N)
        assert np.all(np.abs(emp - Sc) < 5 * se)


class TestDump:
    def test_csv_roundtrip(self):
        sp = spec(m=2, d=2)
        values = np.zeros((2, sp.size + 1))
        np.cumsum(one(sp), axis=1, out=values[:, 1:])
        buf = io.StringIO()
        dump_csv(sp.times, values, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,B1,B2"
        assert len(lines) == 1 + sp.size + 1
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == 1.0
        assert last[1:] == list(values[:, -1])


def _assert_exact(H, size):
    # The sampler is linear in its 2*size normals: pushing the identity
    # through the transform gives the map A, and A A^T must be the Toeplitz
    # correlation exactly (up to FFT rounding).
    A = fbm._transform(np.eye(2 * size), H).T
    np.testing.assert_allclose(A @ A.T, toeplitz(rho(np.arange(size), H)),
                               rtol=0, atol=1e-12)


class TestCirculantSampler:
    @pytest.mark.parametrize("H", [0.34, 0.4, 0.45, 0.5])
    @pytest.mark.parametrize("size", [1, 2, 6, 16, 64])
    def test_implied_map_is_exact(self, H, size):
        _assert_exact(H, size)

    def test_implied_map_is_exact_random(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(H=st.floats(min_value=1 / 3, max_value=0.5,
                               exclude_min=True),
                   size=st.integers(min_value=1, max_value=96))
        def check(H, size):
            _assert_exact(H, size)

        check()

    def test_negative_eigenvalue_refused(self, monkeypatch):
        def not_positive_definite(k, H):
            k = np.asarray(k)
            return np.where(k == 0, 1.0, np.where(k == 1, -0.9, 0.0))

        fbm._root_spectrum.cache_clear()
        monkeypatch.setattr(fbm, "rho", not_positive_definite)
        with pytest.raises(ConsistencyError):
            one(spec(m=2))

    def test_batch_rows_bitwise_equal_single(self):
        batch = simulate_batch(spec(m=3, replica=5), 4)
        for r in range(4):
            single = one(spec(m=3, replica=5 + r))
            assert np.array_equal(batch[r], single)

    def test_chunking_is_byte_identical(self):
        sp = spec(m=4, refine=2, seed=9)
        parts = [_chunked_replicas(sp, 30, lambda inc: inc, chunk=c)
                 for c in (7, 250)]
        assert parts[0].tobytes() == parts[1].tobytes()

    def test_zero_replicas_refused(self):
        with pytest.raises(DomainError):
            simulate_batch(spec(), 0)
        with pytest.raises(DomainError):
            _chunked_replicas(spec(), 0, lambda inc: inc)

    def test_working_set_gate(self):
        with pytest.raises(CapacityError):
            simulate_batch(spec(m=13), 10 ** 6)

    def test_key_ranges(self):
        SimSpec(model=HurstModel(0.4, 2), m=2, seed=2 ** 64 - 1,
                replica=2 ** 48 - 1)
        for kwargs in ({"seed": -1}, {"seed": 2 ** 64}, {"seed": 1.5},
                       {"replica": 2 ** 48}):
            with pytest.raises(DomainError):
                SimSpec(model=HurstModel(0.4, 2), m=2, **kwargs)
        with pytest.raises(DomainError):
            SimSpec(model=HurstModel(0.4, 2 ** 16), m=2)
        with pytest.raises(DomainError):
            simulate_batch(spec(replica=2 ** 48 - 1), 2)


def _normals(monkeypatch, sp, n_replicas):
    # the standard normals the sampler feeds its transform, one per stream
    monkeypatch.setattr(fbm, "_transform", lambda z, H, scale=1.0: z)
    return simulate_batch(sp, n_replicas)


def _philox(seed, replica, comp, n):
    # a uint64 array: numpy reads a list key holding a word >= 2^63 as
    # float64, which rounds it (2^64 - 1 becomes 0)
    key = np.array([seed, (replica << 16) | comp], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


class TestStreamKeying:
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("replica", [0, 2 ** 48 - 2])
    def test_streams_equal_keyed_philox(self, monkeypatch, seed, replica):
        # two replicas of three components: every stream but the first
        # follows another in the same call, so leaked state would show
        z = _normals(monkeypatch, spec(d=3, m=3, seed=seed, replica=replica),
                     2)
        for r in range(2):
            for comp in range(3):
                want = _philox(seed, replica + r, comp, z.shape[-1])
                assert z[r, comp].tobytes() == want.tobytes()

    def test_widest_key(self, monkeypatch):
        # the last replica with the largest component: key word 2^64 - 2
        d = 2 ** 16 - 1
        z = _normals(monkeypatch, spec(d=d, m=1, seed=2 ** 64 - 1,
                                       replica=2 ** 48 - 1), 1)
        for comp in (0, d - 1):
            want = _philox(2 ** 64 - 1, 2 ** 48 - 1, comp, z.shape[-1])
            assert z[0, comp].tobytes() == want.tobytes()

    def test_extreme_keys_stay_distinct(self):
        # seed 2^64 - 1 would collide with seed 0 under a rounded key
        top = one(spec(seed=2 ** 64 - 1))
        assert not np.array_equal(top, one(spec(seed=0)))
        assert not np.array_equal(top, one(spec(seed=2 ** 64 - 2)))

    def test_order_and_split_do_not_matter(self):
        whole = simulate_batch(spec(m=4, seed=21, replica=3), 9)
        # later replicas first, in uneven batches
        parts = {a: simulate_batch(spec(m=4, seed=21, replica=3 + a), b - a)
                 for a, b in ((7, 9), (2, 7), (0, 1), (1, 2))}
        joined = np.concatenate([parts[a] for a in sorted(parts)])
        assert joined.tobytes() == whole.tobytes()


class TestChunkPlan:
    # (d, size) of every sampled workload command, and the grid cap
    SHAPES = [(2, 2 ** 13), (2, 64), (1, 2 ** 9), (2, fbm.MAX_GRID),
              (1, fbm.MAX_GRID)] + [(2, 4 * 2 ** m) for m in range(4, 10)]

    @pytest.mark.parametrize("d, size", SHAPES)
    @pytest.mark.parametrize("threads", [1, 2, 3, 64])
    def test_working_set_within_budget(self, d, size, threads):
        per_replica = d * (48 * size + 16)
        assert fbm._replica_bytes(d, size) == per_replica
        workers, chunk = experiments._chunk_plan(d, size, threads)
        assert 1 <= workers <= threads
        assert 1 <= chunk <= experiments.MAX_CHUNK
        assert workers * chunk * per_replica <= experiments.CHUNK_BUDGET_BYTES

    def test_short_streams_get_one_worker(self):
        # two threads asked for: a second thread slows 64-point streams
        # down and speeds 8,192-point streams up
        assert experiments._chunk_plan(2, 64, 2)[0] == 1
        assert experiments._chunk_plan(2, 2 ** 13, 2)[0] == 2

    def test_default_threads_is_the_usable_core_count(self, monkeypatch):
        assert experiments.default_threads() >= 1
        monkeypatch.delattr(experiments.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 5)
        assert experiments.default_threads() == 5
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert experiments.default_threads() == 1

    def test_one_spectrum_for_all_threads(self, monkeypatch):
        # more workers than cores, a short switch interval and a rho that
        # yields the interpreter lock: without the warm-up a second thread
        # misses the spectrum cache while the first computes it.  Streams
        # of 512 points, the shortest that get more than one worker.
        calls, idents = [], set()

        def counted(k, H):
            calls.append(H)
            time.sleep(0.01)
            return rho(k, H)

        def worker(inc):
            idents.add(threading.get_ident())
            time.sleep(0.01)  # every pool thread gets a chunk
            return inc

        sp = spec(m=9, seed=4)
        assert sp.size == experiments.PARALLEL_STREAM_POINTS
        fbm._root_spectrum.cache_clear()
        monkeypatch.setattr(fbm, "rho", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = _chunked_replicas(sp, 24, worker, chunk=3, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert len(idents) > 1
        assert len(calls) == 1
        assert out.tobytes() == simulate_batch(sp, 24).tobytes()
