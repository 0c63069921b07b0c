"""Exact-in-law simulation of d-dimensional fBm increments on dyadic grids.

The fine grid is the dyadic grid D_m refined by ``refine`` sub-steps per
cell.  Per component, the increment vector is N(0, Sigma) with the Toeplitz
covariance Sigma_{ij} = mesh^{2H} rho(|i-j|).  Sampling is by circulant
embedding (Davies & Harte 1987; Dietrich & Newsam 1997): rho(0..size) is
embedded in a symmetric circulant of length 2 * size whose eigenvalues, one
real FFT of that row, are checked nonnegative at run time.  Each stream's
2 * size standard normals go through the circulant's real symmetric square
root, one rfft/irfft pair, and the first ``size`` outputs carry exactly the
Toeplitz law.  Nothing of size (size, size) is formed: the cached spectrum
is size + 1 floats per (H, size), and the working set of a call is gated in
bytes (MAX_WORKING_BYTES).

Components use independent, reproducible counter-based Philox streams
keyed directly by (seed, replica, component), so any replica of a batch can
be drawn again on its own.  A call keeps one Philox generator and sets its
state to each stream's key with counter 0 and an empty buffer, which is
bitwise the stream of ``Generator(Philox(key=...))`` without the entropy
seeding that constructor performs before the key replaces it.
"""

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError
from .gaussian import HurstModel, rho

__all__ = [
    "SimSpec",
    "FbmPath",
    "simulate",
    "simulate_batch",
    "increment_cov_matrix",
    "dump_csv",
]

MAX_GRID = 2 ** 14
# Cap on the sampler's working set per call (normals, spectra and output).
MAX_WORKING_BYTES = 2 ** 30

# Philox key layout: word 0 is the seed, word 1 packs replica and component.
_COMPONENT_BITS = 16
_REPLICA_BITS = 64 - _COMPONENT_BITS
_REPLICA_LIMIT = 2 ** _REPLICA_BITS


@dataclass(frozen=True)
class SimSpec:
    """Simulation request: model, dyadic level m, sub-steps per cell, seeding.

    seed must be an integer in [0, 2^64), replica in [0, 2^48) and the
    dimension d below 2^16, the ranges the Philox key layout can hold.
    """

    model: HurstModel
    m: int
    refine: int = 1
    seed: int = 0
    replica: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("dyadic level m must be >= 1")
        if self.refine < 1:
            raise DomainError("refine must be >= 1")
        if not isinstance(self.seed, numbers.Integral) or \
                not 0 <= self.seed < 2 ** 64:
            raise DomainError(
                f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not isinstance(self.replica, numbers.Integral) or \
                not 0 <= self.replica < _REPLICA_LIMIT:
            raise DomainError(f"replica must be an integer in "
                              f"[0, 2^{_REPLICA_BITS}), got {self.replica!r}")
        if self.model.d >= 2 ** _COMPONENT_BITS:
            raise DomainError(
                f"d must be below 2^{_COMPONENT_BITS}, got {self.model.d}")
        if self.size > MAX_GRID:
            raise CapacityError(f"grid size {self.size} exceeds cap {MAX_GRID}")

    @property
    def size(self):
        """Number of fine-grid increments, refine * 2^m."""
        return self.refine * 2 ** self.m

    @property
    def mesh(self):
        """Fine-grid spacing."""
        return 2.0 ** (-self.m) / self.refine

    @property
    def times(self):
        """Fine grid points 0, mesh, ..., 1."""
        return np.arange(self.size + 1) * self.mesh


@dataclass(frozen=True)
class FbmPath:
    """Sampled increments (d x size) and cumulative values (d x (size+1))."""

    spec: SimSpec
    increments: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def times(self):
        return self.spec.times


@functools.lru_cache(maxsize=32)
def _root_spectrum(H, size):
    """Square roots of the eigenvalues of the unit-mesh circulant embedding.

    rho(0..size) is embedded as the first row of a symmetric circulant of
    length 2 * size; its eigenvalues are the real FFT of that row.  A
    negative eigenvalue means the embedding is not a covariance, and is
    refused rather than clipped.  Read-only: the array is shared by callers.
    """
    r = rho(np.arange(size + 1), H)
    lam = np.fft.rfft(np.concatenate([r, r[-2:0:-1]])).real
    low = float(lam.min())
    if low < 0.0:
        raise ConsistencyError(
            f"circulant embedding of rho(H={H}) at size {size} has negative "
            f"eigenvalue {low:.3e}"
        )
    root = np.sqrt(lam)
    root.flags.writeable = False
    return root


def _transform(z, H, scale=1.0):
    """Map standard normals (..., 2*size) to increments (..., size).

    Applies the real symmetric square root of the circulant embedding, so the
    first ``size`` outputs have covariance scale^2 * Toeplitz(rho(0..size-1)).
    Rows are transformed independently: the result for one row does not
    depend on the others in the batch.
    """
    size = z.shape[-1] // 2
    spectrum = np.fft.rfft(z)
    spectrum *= scale * _root_spectrum(H, size)
    return np.fft.irfft(spectrum, n=2 * size)[..., :size]


def increment_cov_matrix(spec):
    """Toeplitz covariance mesh^{2H} rho(|i-j|) of the fine-grid increments."""
    H = spec.model.H
    i = np.arange(spec.size)
    return spec.mesh ** (2 * H) * rho(i, H)[np.abs(i[:, None] - i[None, :])]


def _stream_state(seed, replica, component):
    """Philox state at the start of one (seed, replica, component) stream.

    The 128-bit Philox key is (seed, replica * 2^16 + component): distinct
    triples in the ranges SimSpec enforces get distinct keys, so streams are
    collision-free and independent of execution order.  Counter 0 and an
    empty buffer are what ``Philox(key=...)`` starts from.  The key is a
    uint64 array: numpy reads a list holding a word >= 2^63 as float64,
    which rounds it (seed 2^64 - 1 would become seed 0).
    """
    zero = np.zeros(4, dtype=np.uint64)
    word = (int(replica) << _COMPONENT_BITS) | component
    key = np.array([int(seed), word], dtype=np.uint64)
    return {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
            "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _replica_bytes(d, size):
    """Sampler working set of one replica: per stream, 2*size normals, a
    size+1 complex spectrum and 2*size outputs."""
    return d * (8 * 2 * size + 16 * (size + 1) + 8 * 2 * size)


def _sample(spec, n_replicas):
    """Increments of replicas spec.replica, ..., +n_replicas-1: (N, d, size).

    The one sampler path behind both ``simulate`` and ``simulate_batch``.
    """
    if n_replicas < 1:
        raise DomainError(f"n_replicas must be >= 1, got {n_replicas}")
    if spec.replica + n_replicas > _REPLICA_LIMIT:
        raise DomainError(f"replicas must stay below 2^{_REPLICA_BITS}")
    d, size = spec.model.d, spec.size
    need = n_replicas * _replica_bytes(d, size)
    if need > MAX_WORKING_BYTES:
        raise CapacityError(
            f"sampler working set {need} bytes exceeds cap "
            f"{MAX_WORKING_BYTES} bytes"
        )
    z = np.empty((n_replicas, d, 2 * size))
    bits = np.random.Philox(0)  # every stream below replaces this state
    normals = np.random.Generator(bits)
    for r in range(n_replicas):
        for comp in range(d):
            bits.state = _stream_state(spec.seed, spec.replica + r, comp)
            normals.standard_normal(out=z[r, comp])
    return _transform(z, spec.model.H, scale=spec.mesh ** spec.model.H)


def simulate(spec):
    """Draw one FbmPath with the exact joint law of fBm increments.

    Bitwise deterministic in (spec); components are independent streams.
    """
    inc = _sample(spec, 1)[0]
    values = np.zeros((inc.shape[0], spec.size + 1))
    np.cumsum(inc, axis=1, out=values[:, 1:])
    return FbmPath(spec=spec, increments=inc, values=values)


def simulate_batch(spec, n_replicas):
    """Increments for replicas replica, replica+1, ..., shape (N, d, size).

    Uses the same per-replica streams and the same row-wise transform as
    ``simulate`` (replica index offsets spec.replica), so any single replica
    is reproduced standalone.  Raises DomainError for n_replicas < 1 and
    CapacityError when the working set exceeds MAX_WORKING_BYTES.
    """
    return _sample(spec, n_replicas)


def dump_csv(path, fileobj):
    """Write the path as CSV: header t,B1,...,Bd then one row per grid point."""
    d = path.values.shape[0]
    header = "t," + ",".join(f"B{k+1}" for k in range(d))
    fileobj.write(header + "\n")
    times = path.times
    for i in range(times.size):
        row = [f"{times[i]:.17g}"] + [f"{path.values[k, i]:.17g}" for k in range(d)]
        fileobj.write(",".join(row) + "\n")
