"""System specs, their samplers and matrix-free projections.

A system is one of the closed set of kinds in KINDS, with its
parameters.  Every one is centered with unit-variance coordinates, so
E|X|^2 = n, except the anisotropic Gaussian where E|X|^2 is the sum of
the covariance eigenvalues.  Samplers are deterministic given (spec,
integer seed): large batches are sharded with per-shard derived seeds,
so the assembled matrix never depends on execution order.

`project` returns the weighted sums <X, theta> from the same draws as
`weighted_sum(sample_vector(...))`, without the N x n matrix where the
kind allows it:

- trigonometric: at the drawn frequencies w, <X, theta> = Re(z P(z))
  with z = e^(iw) and P(z) = sum_k sqrt2 (theta_(2k-1) - i theta_(2k))
  z^(k-1), evaluated by Horner's rule (the complex form of Clenshaw's
  summation); equal to the matrix path up to rounding;
- walsh: each drawn sign row is packed into an index b of the 2^m cube
  and looked up in v = (cube rows) @ theta, built once per call; used
  when 2^m <= count.  It is bit for bit the matrix path, except on rows
  that BLAS evaluates in a 2-row remainder block of its matvec kernel
  (which ones depends on the count and the BLAS thread count), where
  the matrix path itself rounds differently;
- every other kind (and walsh with a larger cube): the matrix path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .rng import as_rng, make_rng
from .sphere_law import Direction

SQRT3 = math.sqrt(3.0)
SQRT2 = math.sqrt(2.0)

IID_BASES = ("rademacher", "uniform", "exponential", "normal")
KINDS = ("iid", "trigonometric", "walsh", "fixed_norm_rademacher", "gaussian_anisotropic")

SHARD_SIZE = 1 << 16


def default_walsh_characters(n: int) -> tuple[tuple[int, ...], ...]:
    """The n smallest nonempty subsets of {1..m} in graded-lex order.

    m is minimal with 2^m - 1 >= n.
    """
    m = 1
    while (1 << m) - 1 < n:
        m += 1
    chars = []
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(1, m + 1), size):
            chars.append(combo)
            if len(chars) == n:
                return tuple(chars)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class SystemSpec:
    kind: str
    n: int
    base: str | None = None
    characters: tuple[tuple[int, ...], ...] | None = None
    eigenvalues: tuple[float, ...] | None = None

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ConfigurationError(f"dimension must be an integer >= 2, got {self.n}")
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown system kind {self.kind!r}")
        if self.kind == "iid":
            if self.base not in IID_BASES:
                raise ConfigurationError(f"unknown iid base {self.base!r}")
        elif self.base is not None:
            raise ConfigurationError(f"base is only valid for iid systems, got kind={self.kind!r}")
        if self.kind == "trigonometric" and self.n % 2 != 0:
            raise ConfigurationError(f"trigonometric system needs even n, got {self.n}")
        if self.kind == "walsh":
            chars = self.characters
            if chars is None:
                chars = default_walsh_characters(self.n)
                object.__setattr__(self, "characters", chars)
            chars = tuple(tuple(sorted(c)) for c in chars)
            object.__setattr__(self, "characters", chars)
            if len(chars) != self.n:
                raise ConfigurationError(
                    f"walsh system needs {self.n} characters, got {len(chars)}"
                )
            if any(len(c) == 0 for c in chars):
                raise ConfigurationError("walsh characters must be nonempty index sets")
            if len(set(chars)) != len(chars):
                raise ConfigurationError("walsh characters must be distinct")
            if any(i < 1 for c in chars for i in c):
                raise ConfigurationError("walsh character indices are 1-based positive integers")
        elif self.characters is not None:
            raise ConfigurationError("characters are only valid for walsh systems")
        if self.kind == "gaussian_anisotropic":
            if self.eigenvalues is None or len(self.eigenvalues) != self.n:
                raise ConfigurationError("gaussian_anisotropic needs one eigenvalue per coordinate")
            eig = tuple(float(v) for v in self.eigenvalues)
            if any(v <= 0 for v in eig):
                raise ConfigurationError("covariance eigenvalues must be positive")
            object.__setattr__(self, "eigenvalues", eig)
        elif self.eigenvalues is not None:
            raise ConfigurationError("eigenvalues are only valid for gaussian_anisotropic")

    @property
    def spec_id(self) -> str:
        if self.kind == "iid":
            return f"{self.base}-n{self.n}"
        short = {
            "trigonometric": "trig",
            "walsh": "walsh",
            "fixed_norm_rademacher": "fixed_norm",
            "gaussian_anisotropic": "aniso",
        }[self.kind]
        return f"{short}-n{self.n}"

    @property
    def is_fixed_norm(self) -> bool:
        """Whether |X|^2 = n holds almost surely."""
        return (
            self.kind in ("trigonometric", "walsh", "fixed_norm_rademacher")
            or (self.kind == "iid" and self.base == "rademacher")
        )

    @property
    def is_isotropic(self) -> bool:
        if self.kind == "gaussian_anisotropic":
            return all(v == 1.0 for v in self.eigenvalues)
        return self.kind in ("iid", "trigonometric", "walsh", "fixed_norm_rademacher")

    @property
    def is_gaussian(self) -> bool:
        return self.kind == "gaussian_anisotropic" or (
            self.kind == "iid" and self.base == "normal"
        )

    @property
    def mean_square_norm(self) -> float:
        if self.kind == "gaussian_anisotropic":
            return float(sum(self.eigenvalues))
        return float(self.n)

    @property
    def walsh_bits(self) -> int:
        return max(i for c in self.characters for i in c)


@dataclass(frozen=True)
class SampleBatch:
    matrix: np.ndarray
    spec: SystemSpec

    @property
    def count(self) -> int:
        return self.matrix.shape[0]


def _sample_rows(spec: SystemSpec, count: int, gen: np.random.Generator) -> np.ndarray:
    n = spec.n
    # affine maps act in place: no second count x n array
    # fixed-norm rademacher draws exactly like iid rademacher
    if spec.kind == "fixed_norm_rademacher" or spec.base == "rademacher":
        out = gen.integers(0, 2, size=(count, n)).astype(float)
        out *= 2.0
        out -= 1.0
        return out
    if spec.kind == "iid":
        if spec.base == "uniform":
            return gen.uniform(-SQRT3, SQRT3, size=(count, n))
        if spec.base == "exponential":
            out = gen.standard_exponential(size=(count, n))
            out -= 1.0
            return out
        return gen.standard_normal(size=(count, n))
    if spec.kind == "trigonometric":
        omega = gen.uniform(-math.pi, math.pi, size=count)
        k = np.arange(1, n // 2 + 1, dtype=float)
        ang = omega[:, None] * k[None, :]
        out = np.empty((count, n))
        out[:, 0::2] = SQRT2 * np.cos(ang)
        out[:, 1::2] = SQRT2 * np.sin(ang)
        return out
    if spec.kind == "walsh":
        return _walsh_rows(spec, gen.integers(0, 2, size=(count, spec.walsh_bits)))
    out = gen.standard_normal(size=(count, n))  # gaussian_anisotropic
    out *= np.sqrt(np.asarray(spec.eigenvalues))
    return out


def _walsh_rows(spec: SystemSpec, bits: np.ndarray) -> np.ndarray:
    """Walsh characters at the sign rows eps = 2 bits - 1."""
    eps = bits.astype(float) * 2.0 - 1.0
    out = np.empty((bits.shape[0], spec.n))
    for j, char in enumerate(spec.characters):
        idx = np.array(char) - 1
        out[:, j] = np.prod(eps[:, idx], axis=1)
    return out


def _in_shards(draw, count: int, rng, width: tuple = ()) -> np.ndarray:
    """draw(rows, generator) for `count` rows.

    With an integer seed, batches above the shard size are drawn in
    independent shards whose seeds derive from (seed, shard index); the
    assembled array is identical whatever order shards run in.
    """
    if count < 1:
        raise ConfigurationError(f"sample count must be positive, got {count}")
    if isinstance(rng, (int, np.integer)) and count > SHARD_SIZE:
        out = np.empty((count, *width))
        for shard, lo in enumerate(range(0, count, SHARD_SIZE)):
            hi = min(lo + SHARD_SIZE, count)
            out[lo:hi] = draw(hi - lo, make_rng(int(rng), "shard", shard))
        return out
    return draw(count, as_rng(rng))


def sample_vector(spec: SystemSpec, count: int, rng) -> SampleBatch:
    """Draw `count` i.i.d. rows from the law of X.

    With an integer seed, batches above the shard size are drawn in
    shards (see `_in_shards`), so the matrix never depends on run order.
    """
    matrix = _in_shards(lambda rows, gen: _sample_rows(spec, rows, gen), count, rng,
                        (spec.n,))
    return SampleBatch(matrix=matrix, spec=spec)


def weighted_sum(batch: SampleBatch, theta: Direction) -> np.ndarray:
    """Row-wise inner products <X, theta>."""
    if batch.matrix.shape[1] != theta.n:
        raise DomainError(
            f"dimension mismatch: batch has n={batch.matrix.shape[1]}, "
            f"direction has n={theta.n}"
        )
    return batch.matrix @ theta.coords


def _trig_projector(theta: Direction):
    """rows, generator -> <X, theta> at the drawn frequencies, by Horner."""
    coef = SQRT2 * (theta.coords[0::2] - 1j * theta.coords[1::2])

    def draw(rows: int, gen: np.random.Generator) -> np.ndarray:
        z = np.exp(1j * gen.uniform(-math.pi, math.pi, size=rows))
        p = np.full(rows, coef[-1])
        for c in coef[-2::-1]:
            p *= z
            p += c
        p *= z
        return p.real

    return draw


def _walsh_projector(spec: SystemSpec, theta: Direction):
    """rows, generator -> <X, theta> looked up by packed sign pattern."""
    m = spec.walsh_bits
    powers = 1 << np.arange(m)
    cube = (np.arange(1 << m)[:, None] & powers[None, :]) != 0
    values = _walsh_rows(spec, cube) @ theta.coords

    def draw(rows: int, gen: np.random.Generator) -> np.ndarray:
        return values[gen.integers(0, 2, size=(rows, m)) @ powers]

    return draw


def project(spec: SystemSpec, theta: Direction, count: int, rng) -> np.ndarray:
    """The `count` values of <X, theta>, from the draws of `sample_vector`.

    Equals weighted_sum(sample_vector(spec, count, rng), theta): bit for
    bit on the fallback path, up to rounding on the trigonometric and
    walsh ones (see the module docstring).
    """
    if spec.n != theta.n:
        raise DomainError(
            f"dimension mismatch: system has n={spec.n}, direction has n={theta.n}")
    if spec.kind == "trigonometric":
        draw = _trig_projector(theta)
    elif spec.kind == "walsh" and (1 << spec.walsh_bits) <= count:
        draw = _walsh_projector(spec, theta)
    else:
        return weighted_sum(sample_vector(spec, count, rng), theta)
    return _in_shards(draw, count, rng)


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

def spiked_eigenvalues(n: int, normalize: bool = True) -> tuple[float, ...]:
    """Eigenvalue 2 first, the rest 1; optionally rescaled so the sum is n."""
    eig = np.ones(n)
    eig[0] = 2.0
    if normalize:
        eig *= n / eig.sum()
    return tuple(float(v) for v in eig)


def built_in_spec(name: str, n: int) -> SystemSpec:
    """Construct a catalog system by CLI name."""
    name = name.lower()
    if name in IID_BASES:
        return SystemSpec(kind="iid", n=n, base=name)
    if name in ("trigonometric", "trig"):
        return SystemSpec(kind="trigonometric", n=n)
    if name == "walsh":
        return SystemSpec(kind="walsh", n=n)
    if name in ("fixed_norm_rademacher", "fixed_norm"):
        return SystemSpec(kind="fixed_norm_rademacher", n=n)
    if name in ("gaussian_anisotropic", "aniso"):
        return SystemSpec(kind="gaussian_anisotropic", n=n, eigenvalues=spiked_eigenvalues(n))
    raise ConfigurationError(f"unknown system name {name!r}")


def default_catalog(n: int = 64) -> list[SystemSpec]:
    """The systems exercised by the verification suites."""
    walsh_n = n - 1  # 2^m - 1 shape: all nonempty characters of a minimal cube
    return [
        SystemSpec(kind="iid", n=n, base="rademacher"),
        SystemSpec(kind="iid", n=n, base="uniform"),
        SystemSpec(kind="iid", n=n, base="exponential"),
        SystemSpec(kind="iid", n=n, base="normal"),
        SystemSpec(kind="trigonometric", n=n),
        SystemSpec(kind="walsh", n=walsh_n),
        SystemSpec(kind="fixed_norm_rademacher", n=n),
        SystemSpec(kind="gaussian_anisotropic", n=n, eigenvalues=spiked_eigenvalues(n)),
    ]
