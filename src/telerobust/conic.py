"""Primal-dual interior-point solver for small Hermitian-block SDPs.

The solver handles problems of the form

    min/max   sum_k <C_k, X_k> + offset
    s.t.      sum_k <A_ik, X_k>  (= / <= / >=)  b_i
              X_k >= 0,   and optionally  X_k^{T_B} >= 0  (PPT tag)

with complex Hermitian blocks.  A PPT-tagged block is handled by
adjoining its partial transpose as an extra PSD variable tied to the
original through equality rows, so dual solutions automatically carry a
decomposition of the dual slack into ``P + Q^{T_B}`` with P, Q >= 0.

Internally everything is mapped to the real symmetric vectorization
(svec) and solved with a Mehrotra predictor-corrector method using
Nesterov-Todd scaling, computed as in SDPT3 (Todd, Toh & Tutuncu, SIAM
J. Optim. 8, 1998): one Cholesky factor S = R R^H and one
eigendecomposition R^H X R = Q L^2 Q^H per stack of equal-size blocks
give G = R^-H Q L^1/2, with G^-1 X G^-H = G^H S G = L diagonal and
W = G G^H.  In that frame the search direction's Lyapunov equation is
solved elementwise, and each step length is the smallest eigenvalue of
L^-1/2 (G^-1 dX G^-H) L^-1/2 and of L^-1/2 (G^H dS G) L^-1/2, both
sides in one call: five LAPACK calls per stack per iteration.

Rows are stored only as svec rows, read by both the solver and the
certificate checker.  ``SdpProblem`` keeps each block's rows as the
chunks its ``add_*`` calls made (one matrix per operator equality), so
both read a block's rows as one concatenation.  The compiled standard
form holds each block's rows once, on its row support: the rows on
which the block has a nonzero coefficient.  Blocks with the same support
share it, and the supports are the one row index of all four row
operations (A X, A^T y, the row norms and the Schur complement): one
product per support, added through a slice when its rows are one
contiguous range.  The Schur complement is
built in the per-block sparsity style of Fujisawa, Kojima & Nakata
(Math. Prog. 79, 1997), from one Gram product of the sharing blocks'
rows scaled by G per support.  Blocks of equal size are stacked so that
the factorizations, scaling and step lengths run as one batched call per
size.

The Schur system takes one of two routes, chosen by the row count m.  A
program of at most ``_NUMPY_ROWS`` = 128 rows forms the m x m Schur
matrix, tests it for positive definiteness with numpy's Cholesky and
solves it with numpy's LU.  At d = 2 that covers robustness duals of up
to 7 outcomes (16 k + 4 rows, 116 at k = 7) and classical benchmarks of
up to 6 payoffs (16 k + 17 rows, 113 at k = 6).  A discrimination task
built from a k-outcome instrument has k + 1 payoffs with its padding, so
a Bell measurement's task (k = 4) has a 97-row benchmark.  A larger
program is factored by block Cholesky on scipy's LAPACK and BLAS
kernels, which ``solve`` imports before the first iterate of the first
such program, so a run that only solves small programs never loads
scipy.  When the supports form a block arrow (k disjoint supports of
equal size, one block on every row with the same coefficients on each of
them, and border rows in none of them, as in the robustness dual), that
factor takes the arrow form: one Cholesky per local support and one for
the border, and no m x m matrix.  Every other program has k = 0, and its
border is the whole Schur matrix, factored densely by the same routine.
Both routes retry a failed factorization on the same ladder of diagonal
ridges.

The bound trades a little solve time for the import (one BLAS thread, a
2-vCPU Intel Xeon).  Importing scipy's kernels after the package takes
0.17-0.25 s and 21.4 MiB of peak RSS, once per process.  Programs
without the arrow read within noise on either route: the 97-row classical
benchmark solved in 25-29 ms on numpy against 26-27 ms on scipy's dense
Cholesky (medians of 20 solves, three rounds), and a 113-row six-payoff
one in 19-25 ms against 18-28 ms.  The arrow programs between 84 and 128
rows pay more: the 6- and 7-outcome d = 2 duals (100 and 116 rows) took
1.05-1.06 and 1.09-1.10 times as long on numpy as on scipy's arrow
factor, about 1-2 ms of a 14-29 ms solve, in the same number of
iterations (median ratio of 60 paired solves, three random instruments
each, measured while the dual still had 3k + 1 blocks).  The import
costs as much as about a hundred such solves.  A fresh ``discrim ratio``
at d = 2 took 0.30-0.39 s at 38.5 MiB on the numpy route, against
0.58-0.70 s at 60.7 MiB with the bound at 84 rows.

Measured with one BLAS thread on a 2-vCPU Intel Xeon, for Bell
measurement on an isotropic state: the dual robustness program (2k + 1
blocks for k outcomes) takes about 0.008-0.015 s (68 rows) at d = 2,
0.06-0.08 s (738 rows) at d = 3 and 1.6-1.8 s (4112 rows, 179 MiB peak
RSS, 10 iterations) at d = 4, and that one solve gives the robustness
with both certificates (``rot.rot_certified``).  These figures are now
those of an instrument that is not Weyl-covariant: ``rot.rot_dual``
solves Bell measurement itself as the two-block program of one outcome
(16, 81 and 256 rows at d = 2, 3 and 4), so up to d = 3 it stays on the
numpy route and never reaches the arrow factor.  The primal program,
kept as an independent check, takes about 0.025-0.045 s (144 rows) and
0.9-1.1 s (1539 rows).  Building the dual program takes 0.24-0.27 ms
at d = 2 and 1.3-1.4 ms at d = 3, the primal 0.16-0.19 ms and 0.8-0.9 ms
(best of 9 x 20 calls, in each of four processes).  Re-checking a
certificate runs no solver: the dual's takes 0.50-0.55 ms at d = 2 and
1.6-1.9 ms at d = 3, the primal's 0.76-0.82 ms and 2.5-3.2 ms.  A fresh
interpreter imports the package in about 0.2 s at 35 MB peak RSS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericalError, dagger, hermitize, partial_transpose

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "CertificateReport",
    "SolverError",
    "NumericalError",
    "solve",
    "solve_checked",
    "verify_certificate",
    "svec",
    "smat",
]

_SQRT2 = np.sqrt(2.0)
# Programs with at most this many rows solve their Schur system with numpy
# alone (at d = 2: robustness duals of up to 7 outcomes, classical
# benchmarks of up to 6 payoffs), without scipy's import; larger ones take
# the arrow or dense factor on scipy's kernels, loaded on first use.  The
# module docstring gives the measured trade.
_NUMPY_ROWS = 128
_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_BASIS_CACHE: dict[int, np.ndarray] = {}


class SolverError(RuntimeError):
    """Raised when a solve that must succeed does not reach optimality."""


def _triu(n):
    if n not in _TRIU_CACHE:
        _TRIU_CACHE[n] = np.triu_indices(n, 1)
    return _TRIU_CACHE[n]


def svec_stack(ms):
    """Map stacked Hermitian matrices (m, n, n) to real rows (m, n*n)."""
    ms = np.asarray(ms, dtype=complex)
    m, n, _ = ms.shape
    iu, ju = _triu(n)
    diag = ms[:, np.arange(n), np.arange(n)].real
    off = ms[:, iu, ju]
    return np.concatenate([diag, _SQRT2 * off.real, _SQRT2 * off.imag], axis=1)


def smat_stack(vs, n):
    """Inverse of :func:`svec_stack` for rows of length n*n."""
    vs = np.asarray(vs, dtype=float)
    m = vs.shape[0]
    iu, ju = _triu(n)
    k = n * (n - 1) // 2
    out = np.zeros((m, n, n), dtype=complex)
    out[:, np.arange(n), np.arange(n)] = vs[:, :n]
    if k:
        upper = (vs[:, n : n + k] + 1j * vs[:, n + k :]) / _SQRT2
        out[:, iu, ju] = upper
        out[:, ju, iu] = upper.conj()
    return out


def svec(x):
    """Real vectorization of a single Hermitian matrix."""
    x = np.asarray(x, dtype=complex)
    return svec_stack(x[None, :, :])[0]


def smat(v, n):
    """Hermitian matrix from its real vectorization."""
    return smat_stack(np.asarray(v, dtype=float)[None, :], n)[0]


@dataclass
class _Block:
    size: int
    cone: str = "psd"  # "psd" or "ppt"
    ppt_dims: tuple[int, int] | None = None


class SdpProblem:
    """Block SDP description assembled through add_* calls.

    A scalar row i reads sum_k A_ik @ svec(X_k)  senses[i]  rhs[i], where
    A_ik is the svec row (real, length n_k^2) of the Hermitian part of
    block k's coefficient.  ``rhs`` and ``senses`` hold one entry per row.
    The coefficients are stored per block, in the per-block sparsity
    style of Fujisawa, Kojima & Nakata (Math. Prog. 79, 1997):
    ``chunks[k]`` lists (row indices (r,), coefficient rows (r, n_k^2))
    pairs, one per call that names block k, in row order.  An operator
    equality adds one chunk of n^2 rows per block it names, and
    ``add_constraint`` a one-row chunk per block.  The stored arrays are
    read-only.

    ``constraints`` is a view derived from that storage, one
    ``(coeffs, sense, rhs)`` triple per row with ``coeffs[k]`` the row
    A_ik of each block the row names; it is rebuilt on every read, so
    changing it changes nothing.
    """

    def __init__(self):
        self.blocks: list[_Block] = []
        self.chunks: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self.rhs: list[float] = []
        self.senses: list[str] = []
        self.objective: dict[int, np.ndarray] = {}
        self.offset: float = 0.0
        self.sense: str = "min"

    @property
    def constraints(self) -> list[tuple[dict[int, np.ndarray], str, float]]:
        """One (coeffs, sense, rhs) triple per row, gathered from ``chunks``."""
        coeffs: list[dict[int, np.ndarray]] = [{} for _ in self.rhs]
        for k, chunks in enumerate(self.chunks):
            for rows, a in chunks:
                for r, row in zip(rows.tolist(), a):
                    coeffs[r][k] = row
        return list(zip(coeffs, self.senses, self.rhs))

    def add_block(self, size, cone="psd", ppt_dims=None):
        """Register a Hermitian PSD variable block; returns its index."""
        size = int(size)
        if cone == "ppt":
            if ppt_dims is None or int(ppt_dims[0]) * int(ppt_dims[1]) != size:
                raise ValueError("ppt block needs factor dims with matching product")
            ppt_dims = (int(ppt_dims[0]), int(ppt_dims[1]))
        elif cone != "psd":
            raise ValueError(f"unknown cone {cone!r}")
        self.blocks.append(_Block(size, cone, ppt_dims))
        self.chunks.append([])
        return len(self.blocks) - 1

    def set_objective(self, coeffs, offset=0.0, sense="min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.objective = {int(k): hermitize(v) for k, v in coeffs.items()}
        self.offset = float(offset)
        self.sense = sense

    def _add_rows(self, per_block, senses, rhs):
        """Append rows: ``per_block`` maps a block to its (len(rhs), n^2) coefficient rows."""
        rows = np.arange(len(self.rhs), len(self.rhs) + len(rhs))
        rows.setflags(write=False)
        for k, a in per_block.items():
            a = np.ascontiguousarray(a, dtype=float)
            a.setflags(write=False)
            self.chunks[k].append((rows, a))
        self.senses.extend(senses)
        self.rhs.extend(rhs)

    def add_constraint(self, coeffs, sense, rhs):
        """Scalar constraint sum_k Re<coeffs[k], X_k>  sense  rhs; stores svec(herm(coeffs[k]))."""
        if sense not in ("=", "<=", ">="):
            raise ValueError(f"unknown constraint sense {sense!r}")
        clean = {}
        for k, v in coeffs.items():
            k = int(k)
            n = self.blocks[k].size
            v = np.asarray(v, dtype=complex)
            if v.shape != (n, n):
                raise ValueError(f"coefficient for block {k} has shape {v.shape}, expected {(n, n)}")
            clean[k] = svec(hermitize(v))[None, :]
        self._add_rows(clean, [sense], [float(np.real(rhs))])

    def add_operator_equality(self, terms, target):
        """Operator equality sum_j L_j(X_{k_j}) = target, expanded to rows.

        ``terms`` is a list of (block_index, map) pairs where map is either
        a real scalar (meaning scalar * X) or a callable applying a
        Hermitian-preserving linear map matrix-wise to a stack (m, n, n);
        it is called once, on the svec basis of its block.  Repeated block
        indices are accumulated.  Row r is the r-th svec coordinate of
        both sides; each block named gets one chunk of all n^2 rows.
        """
        target = hermitize(target)
        nt = target.shape[0]
        rows: dict[int, np.ndarray] = {}
        for k, f in terms:
            k = int(k)
            nk = self.blocks[k].size
            if callable(f):
                a = svec_stack(hermitize(f(_basis(nk)))).T
            else:
                a = float(f) * np.eye(nk * nk)
            if a.shape[0] != nt * nt:
                raise ValueError(f"map for block {k} lands in wrong space")
            rows[k] = rows[k] + a if k in rows else a
        self._add_rows(rows, ["="] * (nt * nt), svec(target).tolist())


@dataclass
class SdpSolution:
    """Result of a solve, in terms of the user-declared blocks and rows.

    ``dual_multipliers`` holds one entry per user constraint, stated for
    the minimization form of the problem (a maximization is negated
    before solving).  For a PPT-tagged block, ``ppt_pairs`` carries PSD
    (P, Q) with dual slack = P + Q^{T_B}; ``verify_certificate`` needs
    them to check that block.  ``gap`` is the relative duality gap
    |primal - dual| / (1 + |primal| + |dual|); on an "optimal" status it
    and ``max_constraint_violation`` are <= tol.
    """

    status: str
    primal_blocks: list[np.ndarray] = field(default_factory=list)
    dual_multipliers: np.ndarray | None = None
    ppt_pairs: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    primal_value: float = np.nan
    dual_value: float = np.nan
    gap: float = np.nan
    max_constraint_violation: float = np.nan
    primal_residual: float = np.nan
    dual_residual: float = np.nan
    iterations: int = 0
    message: str = ""


@dataclass
class CertificateReport:
    ok: bool
    max_violation: float
    checks: dict[str, float]
    messages: list[str]


@dataclass
class _Group:
    """The blocks of one size, stacked: position ``b`` is block ``idx[b]``, with objective ``C[b]``."""

    n: int
    idx: np.ndarray
    C: np.ndarray


@dataclass
class _Support:
    """One distinct row support R and the blocks whose coefficients touch exactly R.

    ``rows`` selects R, ``index`` selects M[R, R] and ``cols`` the member
    blocks' entries in the flat svec vector of all blocks, each a slice
    where it runs without a gap.  ``coef`` holds the members' coefficient
    rows on R side by side; each member is (group, block position, A_R),
    with A_R its own columns of ``coef``.
    """

    rows: slice | np.ndarray
    index: tuple
    coef: np.ndarray
    cols: slice | np.ndarray
    members: list[tuple[int, int, np.ndarray]]


def _span(idx):
    """A slice for increasing indices that run without a gap, else ``idx`` itself."""
    return slice(int(idx[0]), int(idx[-1]) + 1) if np.all(np.diff(idx) == 1) else idx


def _support(r, found):
    """The :class:`_Support` on rows ``r`` of the (group, position, A_R, cols) in ``found``."""
    rows = _span(r)
    index = (rows, rows) if isinstance(rows, slice) else np.ix_(r, r)
    coef = np.concatenate([a for _, _, a, _ in found], axis=1)
    ends = np.cumsum([a.shape[1] for _, _, a, _ in found])
    members = [(g, b, coef[:, end - a.shape[1] : end]) for (g, b, a, _), end in zip(found, ends)]
    return _Support(rows, index, coef, _span(np.concatenate([c for *_, c in found])), members)


def _scaled_rows(sup, ph):
    """U_R = [A_R^1 Pg^1 | A_R^2 Pg^2 | ...], whose Gram matrix is the support's Schur term."""
    return np.concatenate([a @ ph[g][b] for g, b, a in sup.members], axis=1)


@dataclass
class _Arrow:
    """The block-arrow form of a Schur matrix, read off the row supports.

    The ``local`` supports are disjoint and of equal size r, and one
    block, ``shared`` = (group, position), touches every row with the
    same coefficient rows on each local support.  With D_a the Gram
    matrix of local support a and U_0, U_b the shared block's scaled
    rows on one local support and on the border (the rows in no local
    support), the Schur matrix in the row order ``perm`` is

        [[blockdiag(D_a) + J (x) U_0 U_0^T,  1 (x) U_0 U_b^T],
         [1^T (x) U_b U_0^T,                 U_b U_b^T      ]].

    ``coef`` holds the shared block's coefficient rows on one local
    support, then on the border.  A program without this structure has
    no local supports: its border is every row, in row order.
    """

    local: list[_Support]
    shared: tuple[int, int] | None
    coef: np.ndarray | None
    perm: np.ndarray


def _arrow(supports, m):
    """The :class:`_Arrow` of a program's row supports; k = 0 without that structure."""
    dense = _Arrow([], None, None, np.arange(m))
    rows = [np.arange(m)[s.rows] for s in supports]
    full = [i for i, (s, r) in enumerate(zip(supports, rows)) if len(s.members) == 1 and len(r) == m]
    local = [i for i in range(len(supports)) if i not in full]
    if len(full) != 1 or not local or len({len(rows[i]) for i in local}) != 1:
        return dense
    taken = np.concatenate([rows[i] for i in local])
    # how many local supports hold each row; counted rather than passed to
    # np.unique or np.setdiff1d, which import numpy.ma on first use (about
    # 16 ms in every freshly forked rot_many worker)
    uses = np.bincount(taken, minlength=m)
    if uses.max() > 1:
        return dense
    where = np.empty(m, dtype=int)
    where[rows[full[0]]] = np.arange(m)
    coef = supports[full[0]].coef
    c0 = coef[where[rows[local[0]]]]
    if not all(np.array_equal(coef[where[rows[i]]], c0) for i in local[1:]):
        return dense
    border = np.flatnonzero(uses == 0)
    g, b, _ = supports[full[0]].members[0]
    return _Arrow(
        [supports[i] for i in local], (g, b), np.vstack([c0, coef[where[border]]]), np.concatenate([taken, border])
    )


def _ridged(factor, base):
    """``factor(shift)`` at the first rung of the ridge ladder on which it succeeds.

    The rungs shift every diagonal entry of the Schur matrix M by 0, then
    1e-14, 1e-11 and 1e-8 times ``base`` = tr M / m; ``factor`` raises
    ``LinAlgError`` when M plus its shift is not positive definite.
    """
    if not np.isfinite(base):
        raise np.linalg.LinAlgError("Schur complement not finite")
    for ridge in (0.0, 1e-14, 1e-11, 1e-8):
        try:
            return factor(ridge * base)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("Schur complement not positive definite")


def _numpy_solver(mmat):
    """Solver callable for a Schur matrix of at most ``_NUMPY_ROWS`` rows, with numpy alone.

    A Cholesky factorization is the positive-definiteness test of each
    rung of :func:`_ridged`; numpy has no triangular solve, so each call
    then takes one LU solve of the matrix that passed.
    """

    def shifted(shift):
        a = mmat + shift * np.eye(len(mmat)) if shift else mmat
        np.linalg.cholesky(a)
        return a

    a = _ridged(shifted, np.trace(mmat) / len(mmat))
    return lambda rhs: np.linalg.solve(a, rhs)


def _scipy_kernels():
    """scipy's LAPACK ``dpotrf`` and BLAS ``dtrsm`` and ``dtrsv``, imported on first use."""
    from scipy.linalg.blas import dtrsm, dtrsv
    from scipy.linalg.lapack import dpotrf

    return dpotrf, dtrsm, dtrsv


def _arrow_factor(pivots, z, shift):
    """Block Cholesky factor of an arrow matrix, with ``shift`` added to its diagonal.

    The matrix is blockdiag(pivots) + J (x) Z_KK on the k local blocks of
    size r, bordered by Z_KF and Z_FF, where z = [[Z_KK, Z_KF], [Z_FK, Z_FF]].
    Step a factors L_a = chol(D_a + Z_KK), forms X_a = L_a^-1 [Z_KK | Z_KF]
    and updates Z -= X_a^T X_a; every later block of column a is the same
    X_a, so the form is kept.  Returns the (L_a, X_a) and the border's factor.
    """
    dpotrf, dtrsm, _ = _scipy_kernels()
    z = z.copy()
    r = pivots[0].shape[0] if pivots else 0
    steps = []
    for d in pivots:
        p = d + z[:r, :r]
        if shift:
            p[np.diag_indices(r)] += shift
        # p and z are symmetric, so their transposes are the Fortran-ordered
        # arrays LAPACK takes without a copy; X_a^T = [Z_KK | Z_KF]^T L_a^-T
        low, info = dpotrf(p.T, lower=1, overwrite_a=1)
        if info:
            raise np.linalg.LinAlgError("Schur pivot block not positive definite")
        x = dtrsm(1.0, low, z[:r].T, side=1, lower=1, trans_a=1).T
        z -= x.T @ x
        steps.append((low, x))
    fb = z[r:, r:]
    if shift:
        fb[np.diag_indices(fb.shape[0])] += shift
    low, info = dpotrf(fb.T, lower=1, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError("Schur border block not positive definite")
    return steps, low


def _arrow_solver(pivots, z, perm):
    """Factor the arrow matrix of :func:`_arrow_factor` once; returns a solver callable.

    The factor is taken on the ridge ladder of :func:`_ridged`.  The
    forward and backward solves each pass over the local blocks once,
    carrying one running sum.
    """
    *_, dtrsv = _scipy_kernels()
    r = pivots[0].shape[0] if pivots else 0
    base = (sum(np.trace(d) for d in pivots) + len(pivots) * np.trace(z[:r, :r]) + np.trace(z[r:, r:])) / len(perm)
    steps, border = _ridged(lambda shift: _arrow_factor(pivots, z, shift), base)
    width = z.shape[0]

    def msolve(rhs):
        v = rhs[perm]
        run = np.zeros(width)  # sum of X_c^T y_c over the blocks done
        ys = []
        for a, (low, x) in enumerate(steps):
            ys.append(dtrsv(low, v[a * r : (a + 1) * r] - run[:r], lower=1))
            run += ys[-1] @ x
        yb = dtrsv(border, v[len(steps) * r :] - run[r:], lower=1)
        run[:r] = 0.0  # from here: the sum of the local solutions so far, then the border's
        run[r:] = dtrsv(border, yb, lower=1, trans=1)
        out = np.empty_like(v)
        out[len(steps) * r :] = run[r:]
        for a in range(len(steps) - 1, -1, -1):
            low, x = steps[a]
            xa = dtrsv(low, ys[a] - x @ run, lower=1, trans=1)
            out[a * r : (a + 1) * r] = xa
            run[:r] += xa
        res = np.empty_like(out)
        res[perm] = out
        return res

    return msolve


class _Standard:
    """Compiled standard form: equality rows over PSD blocks only.

    Blocks of equal size form one :class:`_Group`, and iterates are held
    as one stack per group, so per-block work is one batched call per
    size.  Each block's rows are held once, in the :class:`_Support` that
    ``a_dot``, ``at_y``, ``row_norms``, ``schur`` and ``arrow_factor`` all
    read; ``arrow`` is their block-arrow form (:class:`_Arrow`).
    """

    def __init__(self, problem: SdpProblem):
        sizes = [blk.size for blk in problem.blocks]
        self.n_user = len(sizes)
        self.companion: dict[int, int] = {}
        self.slack_rows: list[tuple[int, int, float]] = []  # (row, block, sign)

        m_user = len(problem.rhs)
        ppt_blocks = [i for i, blk in enumerate(problem.blocks) if blk.cone == "ppt"]
        m = m_user + sum(problem.blocks[i].size ** 2 for i in ppt_blocks)

        # slack 1x1 blocks for inequality rows
        for i, sense in enumerate(problem.senses):
            if sense != "=":
                sizes.append(1)
                self.slack_rows.append((i, len(sizes) - 1, 1.0 if sense == "<=" else -1.0))
        # companion blocks for ppt tags
        for i in ppt_blocks:
            sizes.append(problem.blocks[i].size)
            self.companion[i] = len(sizes) - 1

        self.sizes = sizes
        self.m = m
        self.m_user = m_user
        self.b = np.zeros(m)
        self.b[:m_user] = problem.rhs

        # (row indices, svec coefficient rows) chunks per block, in row order
        chunks = [[rows] for rows in _block_rows(problem)] + [[] for _ in sizes[self.n_user :]]
        for row, blk, sign in self.slack_rows:
            chunks[blk].append((np.array([row]), np.array([[sign]])))

        r0 = m_user
        for i in ppt_blocks:
            n = problem.blocks[i].size
            rows = np.arange(r0, r0 + n * n)
            pt = svec_stack(partial_transpose(_basis(n), problem.blocks[i].ppt_dims))
            chunks[self.companion[i]].append((rows, np.eye(n * n)))
            chunks[i].append((rows, -pt))
            r0 += n * n

        sign = 1.0 if problem.sense == "min" else -1.0
        self.groups: list[_Group] = []
        self.where: list[tuple[int, int]] = [(0, 0)] * len(sizes)
        self.ends: list[int] = []  # where each group's entries end in the flat svec vector of all blocks
        found: dict[bytes, tuple] = {}  # row support -> (its rows, its members)
        start = 0
        for n in dict.fromkeys(sizes):
            idx = np.array([k for k, nk in enumerate(sizes) if nk == n])
            c_stack = np.zeros((len(idx), n, n), dtype=complex)
            for b, k in enumerate(idx):
                self.where[k] = (len(self.groups), b)
                if k in problem.objective:
                    c_stack[b] = sign * problem.objective[k]
                r = np.concatenate([c[0] for c in chunks[k]])
                a = np.concatenate([c[1] for c in chunks[k]])
                keep = np.any(a != 0.0, axis=1)
                if keep.any():
                    member = (len(self.groups), b, a[keep], np.arange(start, start + n * n))
                    found.setdefault(r[keep].tobytes(), (r[keep], []))[1].append(member)
                start += n * n
            self.ends.append(start)
            self.groups.append(_Group(n=n, idx=idx, C=c_stack))
        self.supports = [_support(r, members) for r, members in found.values()]
        self.arrow = _arrow(self.supports, m)

    def unstack(self, stacks):
        """Per-block list of matrices from one stack per group."""
        return [stacks[g][b] for g, b in self.where]

    def a_dot(self, xs):
        """Row values sum_k <A_ik, X_k> for one stack of blocks per group."""
        flat = np.concatenate([svec_stack(x).ravel() for x in xs])
        out = np.zeros(self.m)
        for sup in self.supports:
            out[sup.rows] += sup.coef @ flat[sup.cols]
        return out

    def at_y(self, y):
        """Adjoint sum_i y_i A_ik, as one stack of blocks per group."""
        flat = np.zeros(self.ends[-1])
        for sup in self.supports:
            flat[sup.cols] = y[sup.rows] @ sup.coef
        parts = np.split(flat, self.ends[:-1])
        return [smat_stack(v.reshape(-1, g.n * g.n), g.n) for v, g in zip(parts, self.groups)]

    def row_norms(self):
        """Euclidean norm of each row over all blocks."""
        sq = np.zeros(self.m)
        for sup in self.supports:
            sq[sup.rows] += (sup.coef**2).sum(axis=1)
        return np.sqrt(sq)

    def schur(self, gs):
        """Schur matrix M_ij = <A_i, W A_j W>, with W = G G^H for any G in each block.

        A block with row support R and coefficient rows A_R adds
        A_R P A_R^T into M[R, R] only, where P is the svec matrix of
        X -> W X W.  P = Pg Pg^T with Pg the svec matrix of X -> G X G^H
        (its transpose is that of X -> G^H X G), so the term is the Gram
        matrix of A_R Pg.  The blocks sharing R are summed as one Gram
        matrix of U_R = [A_R^1 Pg^1 | A_R^2 Pg^2 | ...], added into
        M[R, R] once.
        """
        ph = [_congruence_svec(g) for g in gs]
        mmat = np.zeros((self.m, self.m))
        for sup in self.supports:
            u = _scaled_rows(sup, ph)
            mmat[sup.index] += u @ u.T
        return mmat

    def factor(self, gs):
        """Factor the Schur matrix for scalings W = G G^H; returns a solver callable.

        ``gs`` holds one stack of G per group, as :meth:`schur` takes them.
        A program of at most ``_NUMPY_ROWS`` rows solves the matrix from
        :meth:`schur` with numpy (:func:`_numpy_solver`); a larger one
        takes :meth:`arrow_factor`.
        """
        if self.m <= _NUMPY_ROWS:
            return _numpy_solver(self.schur(gs))
        return self.arrow_factor(gs)

    def arrow_factor(self, gs):
        """The block Cholesky factor of :func:`_arrow_solver`, on scipy's kernels.

        On a program with the block-arrow structure of :class:`_Arrow`
        (k local supports) it factors one r x r pivot per local support
        and the border, and never forms the m x m matrix.  Otherwise k = 0
        and the border is the whole matrix from :meth:`schur`.
        """
        arrow = self.arrow
        if not arrow.local:
            return _arrow_solver([], self.schur(gs), arrow.perm)
        ph = [_congruence_svec(g) for g in gs]
        pivots = []
        for sup in arrow.local:
            u = _scaled_rows(sup, ph)
            pivots.append(u @ u.T)
        g, b = arrow.shared
        u = arrow.coef @ ph[g][b]
        return _arrow_solver(pivots, u @ u.T, arrow.perm)


def _block_rows(problem):
    """Row indices (r_k,) and stacked svec rows (r_k, n_k^2) of each user block.

    A block's chunks are concatenated in row order; a block of one chunk
    returns that chunk's read-only arrays as they are.
    """
    out = []
    for blk, chunks in zip(problem.blocks, problem.chunks):
        if len(chunks) == 1:
            out.append(chunks[0])
            continue
        rows = [np.zeros(0, dtype=int)] + [r for r, _ in chunks]
        coef = [np.zeros((0, blk.size**2))] + [a for _, a in chunks]
        out.append((np.concatenate(rows), np.concatenate(coef)))
    return out


def _basis(n):
    """The n*n Hermitian matrices whose svec are the unit vectors."""
    if n not in _BASIS_CACHE:
        basis = smat_stack(np.eye(n * n), n)
        basis.setflags(write=False)
        _BASIS_CACHE[n] = basis
    return _BASIS_CACHE[n]


def _congruence_svec(h):
    """svec matrices of X -> h X h^H for a stack of any square h, (B, n*n, n*n).

    Column c is svec(h E_c h^H) for the c-th svec basis matrix E_c.  Since
    svec is an isometry, the transpose is the svec matrix of X -> h^H X h,
    and for Hermitian h the matrix is symmetric.  With (p, q) running over
    the pairs P = [0..n) ++ iu, Q = [0..n) ++ ju, (h E_ij h^H)_pq =
    h_pi conj(h_qj) is a1 = h[P, P] * conj(h[Q, Q]) and (h E_ji h^H)_pq is
    a2 = h[P, Q] * conj(h[Q, P]); the diagonal, real and
    imaginary basis matrices take a1, (a1 + a2) / sqrt2 and
    i (a1 - a2) / sqrt2, and svec reads them off as Re, sqrt2 Re, sqrt2 Im.
    """
    count, n, _ = h.shape
    iu, ju = _triu(n)
    p = np.concatenate([np.arange(n), iu])
    q = np.concatenate([np.arange(n), ju])
    hc = h.conj()
    a1 = h[:, p[:, None], p] * hc[:, q[:, None], q]
    a2 = h[:, p[:, None], q] * hc[:, q[:, None], p]
    s, d = a1 + a2, a1 - a2
    dg, re, im, up = slice(0, n), slice(n, n + len(iu)), slice(n + len(iu), n * n), slice(n, None)
    out = np.empty((count, n * n, n * n))
    out[:, dg, dg] = a1[:, dg, dg].real
    out[:, re, dg] = _SQRT2 * a1[:, up, dg].real
    out[:, im, dg] = _SQRT2 * a1[:, up, dg].imag
    out[:, dg, re] = s[:, dg, up].real / _SQRT2
    out[:, re, re] = s[:, up, up].real
    out[:, im, re] = s[:, up, up].imag
    out[:, dg, im] = -d[:, dg, up].imag / _SQRT2
    out[:, re, im] = -d[:, up, up].imag
    out[:, im, im] = d[:, up, up].real
    return out


def _nt_scaling(x, s):
    """Nesterov-Todd scaling of each pair in a stack: (G, lam) with
    G^-1 X G^-H = G^H S G = diag(lam), so that W = G G^H has W S W = X.

    From S = R R^H and R^H X R = Q diag(lam)^2 Q^H, G = R^-H Q diag(lam)^1/2
    (Todd, Toh & Tutuncu, SIAM J. Optim. 8, 1998): one Cholesky and one
    eigendecomposition per stack.
    """
    try:
        r = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        n = s.shape[-1]
        ridge = 1e-12 * np.trace(s, axis1=1, axis2=2).real / n
        r = np.linalg.cholesky(s + ridge[:, None, None] * np.eye(n))
    lam2, q = np.linalg.eigh(hermitize(dagger(r) @ x @ r))
    # relative floor keeps the condition number bounded when a block collapses
    lam = np.sqrt(np.maximum(lam2, np.maximum(lam2[:, -1:], 1e-250) * 1e-16))
    g = dagger(np.linalg.inv(r)) @ (q * np.sqrt(lam)[:, None, :])
    return g, lam


def _max_step(lam, dz):
    """Largest a >= 0 with diag(lam) + a*dz >= 0, for each block of a stack with lam > 0; inf where none binds."""
    rt = 1.0 / np.sqrt(lam)
    low = np.linalg.eigvalsh(dz * rt[:, :, None] * rt[:, None, :])[:, 0]
    return np.where(low < -1e-16, -1.0 / np.minimum(low, -1e-16), np.inf)


def _step_lengths(lams, dxs, dss, gamma=1.0):
    """Primal and dual steps, min(1, gamma * largest step keeping X, S PSD).

    ``dxs`` and ``dss`` are the directions in the scaled frame,
    G^-1 dX G^-H and G^H dS G, where X and S are diag(lam): both sides of
    a group take one eigenvalue call.
    """
    ap = ad = np.inf
    for lam, dx, ds in zip(lams, dxs, dss):
        steps = _max_step(np.concatenate([lam, lam]), np.concatenate([dx, ds]))
        ap = min(ap, float(steps[: len(lam)].min()))
        ad = min(ad, float(steps[len(lam) :].min()))
    return min(1.0, gamma * ap), min(1.0, gamma * ad)


def _inner(xs, ys):
    """Real trace inner product summed over stacked blocks."""
    return float(np.real(sum(np.vdot(x, y) for x, y in zip(xs, ys))))


def _norm(xs):
    """Frobenius norm over all stacked blocks."""
    return float(np.sqrt(sum(np.linalg.norm(x) ** 2 for x in xs)))


def solve(problem: SdpProblem, tol=1e-8, max_iter=200):
    """Solve an :class:`SdpProblem`; returns an :class:`SdpSolution`."""
    std = _Standard(problem)
    sizes, m = std.sizes, std.m
    if m == 0:
        raise ValueError("problem has no constraints")
    if m > _NUMPY_ROWS:
        # import before the first iterate: loaded mid-iteration, scipy left
        # the d = 3 dual at about 7000 page faults a solve, against 2000
        _scipy_kernels()
    nu = sum(sizes)
    C = [g.C for g in std.groups]

    row_norms = std.row_norms()
    c_norm = _norm(C)
    xi = max(10.0, np.sqrt(max(sizes)), float(np.max((1.0 + np.abs(std.b)) / (1.0 + row_norms))))
    eta = max(10.0, np.sqrt(max(sizes)), 1.0 + c_norm)

    eyes = [np.broadcast_to(np.eye(g.n, dtype=complex), g.C.shape) for g in std.groups]
    X = [xi * e for e in eyes]
    S = [eta * e for e in eyes]
    y = np.zeros(m)
    norm0 = max(xi * np.sqrt(nu), eta * np.sqrt(nu))

    b_norm = 1.0 + np.linalg.norm(std.b)
    c_scale = 1.0 + c_norm
    it = 0
    best = None  # (score, X, y, S)

    def finish(st, msg="", use_best=False):
        nonlocal X, y, S
        if use_best and best is not None:
            _, X, y, S = best
        sign = 1.0 if problem.sense == "min" else -1.0
        pval = problem.offset + sign * _inner(C, X)
        dval = problem.offset + sign * float(std.b @ y)
        resid = std.b - std.a_dot(X)
        viol = float(np.max(np.abs(resid)))
        xs, ss = std.unstack(X), std.unstack(S)
        lows = [np.linalg.eigvalsh(hermitize(x))[:, 0] for x in X]  # one call per size group
        viol = max([viol] + [-float(lows[g][b]) for g, b in std.where[: std.n_user]])
        sol = SdpSolution(
            status=st,
            primal_blocks=[xs[k].copy() for k in range(std.n_user)],
            dual_multipliers=y[: std.m_user].copy(),
            ppt_pairs={i: (ss[i].copy(), ss[k2].copy()) for i, k2 in std.companion.items()},
            primal_value=pval,
            dual_value=dval,
            gap=abs(pval - dval) / (1.0 + abs(pval) + abs(dval)),
            max_constraint_violation=viol,
            primal_residual=float(np.linalg.norm(resid) / b_norm),
            dual_residual=np.nan,
            iterations=it,
            message=msg,
        )
        return sol

    for it in range(1, max_iter + 1):
        rp = std.b - std.a_dot(X)
        Rd = [c - a - s for c, a, s in zip(C, std.at_y(y), S)]
        mu = _inner(X, S) / nu

        cx = _inner(C, X)
        by = float(std.b @ y)
        pinf = float(np.linalg.norm(rp)) / b_norm
        dinf = _norm(Rd) / c_scale
        relgap = abs(cx - by) / (1.0 + abs(cx) + abs(by))

        score = max(pinf, dinf, relgap)
        if best is None or score < best[0]:
            best = (score, X, y, S)
        if pinf <= tol and dinf <= tol and relgap <= tol:
            sol = finish("optimal")
            sol.dual_residual = dinf
            return sol
        if mu < 1e-13 * (1.0 + xi * eta):
            # the central path has been traced out to machine precision
            st = "optimal" if best[0] <= 50 * tol else "numerical_error"
            sol = finish(st, "central path exhausted at machine precision", use_best=True)
            sol.dual_residual = dinf
            return sol

        norm_now = max(_norm(X), float(np.linalg.norm(y)), _norm(S))
        if norm_now > 1e8 * norm0:
            if by > 0:
                ray = std.at_y(y / max(by, 1e-300))
                lam_max = max(float(np.linalg.eigvalsh(hermitize(z))[:, -1].max()) for z in ray)
                if lam_max <= 1e-6 * (1.0 + np.linalg.norm(y) / max(by, 1e-300)):
                    return finish("infeasible", "diverging dual improving ray")
            if cx < 0:
                if np.linalg.norm(std.a_dot(X)) <= 1e-6 * _norm(X):
                    return finish("unbounded", "diverging primal improving ray")
            return finish("numerical_error", "iterates diverged", use_best=True)

        # Nesterov-Todd scaling point, one batched call per group
        try:
            G, lam = zip(*(_nt_scaling(x, s) for x, s in zip(X, S)))
        except np.linalg.LinAlgError:
            return finish("numerical_error", "scaling-point factorization failed", use_best=True)
        W = [hermitize(g @ dagger(g)) for g in G]
        wrdw = [w @ r @ w for w, r in zip(W, Rd)]

        msolve = None  # frees the previous factor before the next m x m matrix is built
        try:
            msolve = std.factor(G)
        except (np.linalg.LinAlgError, ValueError):
            return finish("numerical_error", "Schur complement factorization failed", use_best=True)

        def direction(rv):
            # dX + W dS W = G Z G^H with diag(lam) Z + Z diag(lam) = 2 rv,
            # A dX = rp,  A^T dy + dS = Rd; returns the step and its scaled
            # parts G^-1 dX G^-H = Z - G^H dS G and G^H dS G
            z = [2.0 * r / (v[:, :, None] + v[:, None, :]) for r, v in zip(rv, lam)]
            rc = [g @ zg @ dagger(g) for g, zg in zip(G, z)]
            dy = msolve(rp - std.a_dot([c - t for c, t in zip(rc, wrdw)]))
            dS = [hermitize(r - a) for r, a in zip(Rd, std.at_y(dy))]
            ss = [dagger(g) @ ds @ g for g, ds in zip(G, dS)]
            sx = [zg - t for zg, t in zip(z, ss)]
            dX = [hermitize(g @ t @ dagger(g)) for g, t in zip(G, sx)]
            return dX, dy, dS, sx, ss

        try:
            # predictor
            dXa, dya, dSa, sxa, ssa = direction([-e * (v**2)[:, None, :] for e, v in zip(eyes, lam)])
            ap, ad = _step_lengths(lam, sxa, ssa)
            mu_aff = _inner([x + ap * d for x, d in zip(X, dXa)], [s + ad * d for s, d in zip(S, dSa)]) / nu
            sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-10))

            # corrector
            rv = [
                e * (sigma * mu - v**2)[:, None, :] - (dxs @ dss + dss @ dxs) / 2.0
                for e, v, dxs, dss in zip(eyes, lam, sxa, ssa)
            ]
            dX, dy, dS, sx, ss = direction(rv)
            ap, ad = _step_lengths(lam, sx, ss, 0.98)
        except np.linalg.LinAlgError:
            return finish("numerical_error", "step-length factorization failed", use_best=True)
        X = [hermitize(x + ap * d) for x, d in zip(X, dX)]
        S = [hermitize(s + ad * d) for s, d in zip(S, dS)]
        y = y + ad * dy

    return finish("max_iter", "iteration limit reached", use_best=True)


def solve_checked(problem: SdpProblem, tol=1e-8, max_iter=200, what="SDP"):
    """Solve, insist on optimality, and return only a verified solution.

    A status other than "optimal" raises :class:`SolverError` with the
    status, residuals and gap, so a failed solve can be diagnosed from
    the traceback alone.  An optimal solution must then pass
    :func:`verify_certificate` at max(50 * tol, 1e-9); otherwise the
    :class:`SolverError` names every check above that threshold.
    """
    sol = solve(problem, tol=tol, max_iter=max_iter)
    if sol.status != "optimal":
        raise SolverError(
            f"{what} solve ended with status {sol.status!r} "
            f"(gap={sol.gap:.3e}, primal_residual={sol.primal_residual:.3e}, "
            f"dual_residual={sol.dual_residual:.3e}, iterations={sol.iterations}): "
            f"{sol.message}"
        )
    report = verify_certificate(problem, sol, tol=max(50.0 * tol, 1e-9))
    if not report.ok:
        raise SolverError(f"{what} certificate failed verification: {'; '.join(report.messages)}")
    return sol


def _shape_mismatches(problem, solution):
    """Expected-versus-actual messages for the counts and block shapes that do not fit."""
    y, xs = solution.dual_multipliers, solution.primal_blocks
    counts = [
        ("dual multipliers", len(problem.rhs), 0 if y is None else len(y)),
        ("primal blocks", len(problem.blocks), len(xs)),
    ]
    out = [f"expected {want} {what}, got {got}" for what, want, got in counts if want != got]
    for k, (blk, x) in enumerate(zip(problem.blocks, xs)):
        if np.shape(x) != (blk.size, blk.size):
            out.append(f"primal block {k} has shape {np.shape(x)}, expected {(blk.size, blk.size)}")
    for k, pair in sorted(solution.ppt_pairs.items()):
        want = (problem.blocks[k].size,) * 2 if 0 <= k < len(problem.blocks) else None
        if want and any(np.shape(m) != want for m in pair):
            out.append(f"pair (P, Q) of block {k} has shapes {[np.shape(m) for m in pair]}, expected {want}")
    return out


def _nonfinite_inputs(solution):
    """Messages naming each part of a solution that holds NaN or an infinity."""
    parts = [(f"primal block {k}", x) for k, x in enumerate(solution.primal_blocks)]
    parts.append(("dual multipliers", solution.dual_multipliers))
    for k, (p, q) in sorted(solution.ppt_pairs.items()):
        parts += [(f"pair P of block {k}", p), (f"pair Q of block {k}", q)]
    parts += [("primal_value", solution.primal_value), ("dual_value", solution.dual_value)]
    return [f"{what}: not finite" for what, v in parts if not np.all(np.isfinite(v))]


def _lowest_eigs(mats):
    """Smallest eigenvalue of each Hermitian matrix, from one ``eigvalsh`` call per size."""
    out = np.empty(len(mats))
    for n in {len(m) for m in mats}:
        at = [i for i, m in enumerate(mats) if len(m) == n]
        out[at] = np.linalg.eigvalsh(np.stack([mats[i] for i in at]))[:, 0]
    return out


def verify_certificate(problem: SdpProblem, solution: SdpSolution, tol=1e-6):
    """Independent feasibility and weak-duality check of a solution.

    Primal blocks are tested for cone membership and constraint residuals,
    the dual multipliers for sign conditions and dual-cone membership of
    the slack, and the two objective values for weak duality.  No
    auxiliary solve is run: the slack Z of a PPT-tagged block is in the
    dual cone when it splits as P + Q^{T_B} with P, Q >= 0, and the
    solution's ``ppt_pairs`` must hold that (P, Q).  The checker tests
    P >= 0, Q >= 0 and ||Z - P - Q^{T_B}|| / (1 + ||Z||) <= tol.  A PPT
    block without a pair fails its ``dual_slack_block<k>`` check with a
    message naming the block.  A solution whose block or multiplier
    counts, or block or pair shapes, do not match the problem fails one
    ``shape`` check, with a message giving the expected and actual sizes,
    and is not checked further; one that holds NaN or an infinity in a
    block, multiplier, pair or value fails one ``finite`` check the same
    way.  Any other check whose value is NaN fails as well.
    """
    checks: dict[str, float] = {}
    name, messages = "shape", _shape_mismatches(problem, solution)
    if not messages:
        name, messages = "finite", _nonfinite_inputs(solution)
    if messages:
        messages.append(f"violations above {tol:g}: {{{name!r}: inf}}")
        return CertificateReport(ok=False, max_violation=np.inf, checks={name: np.inf}, messages=messages)
    X = solution.primal_blocks
    y = solution.dual_multipliers

    sign = 1.0 if problem.sense == "min" else -1.0
    pval = problem.offset + float(
        np.real(sum(np.vdot(problem.objective.get(k, np.zeros_like(X[k])), X[k]) for k in range(len(X))))
    )
    rhs = np.array(problem.rhs)
    dval = problem.offset + sign * float(y @ rhs)

    # one product per block gives its share of every row value (a block
    # meets each row at most once) and its dual slack
    # sign * C_k - sum_i y_i A_ik, against user rows only
    vals = np.zeros(len(problem.rhs))
    slacks = []
    for k, (blk, (rows, a)) in enumerate(zip(problem.blocks, _block_rows(problem))):
        vals[rows] += a @ svec(hermitize(X[k]))
        slacks.append(sign * problem.objective.get(k, 0.0) - smat(y[rows] @ a, blk.size))

    # every cone test, as (check, Hermitian matrix, scale), primal then dual;
    # their smallest eigenvalues take one eigvalsh call per size
    primal, dual = [], []
    pairs = {k: [hermitize(m) for m in pair] for k, pair in solution.ppt_pairs.items()}
    for k, blk in enumerate(problem.blocks):
        scale = 1.0 + float(np.linalg.norm(X[k]))
        primal.append((f"primal_psd_block{k}", hermitize(X[k]), scale))
        if blk.cone == "ppt":
            primal.append((f"primal_ppt_block{k}", hermitize(partial_transpose(X[k], blk.ppt_dims)), scale))
            for name, m in zip("PQ", pairs.get(k, [])):
                dual.append((f"dual_slack_block{k}_{name}", m, 1.0 + float(np.linalg.norm(m))))
        else:
            dual.append((f"dual_slack_block{k}", slacks[k], 1.0 + float(np.linalg.norm(slacks[k]))))
    tests = primal + dual
    lows = _lowest_eigs([m for _, m, _ in tests]).tolist()
    cone = {name: max(0.0, -lam / scale) for (name, _, scale), lam in zip(tests, lows)}
    checks.update((name, cone[name]) for name, _, _ in primal)

    # row checks: the residual on the side each row's sense forbids, over
    # 1 + |rhs|, then the sign of each inequality row's multiplier
    senses = np.array(problem.senses)
    diff = vals - rhs
    side = np.where(senses == "=", np.abs(diff), np.maximum(np.where(senses == "<=", diff, -diff), 0.0))
    row_checks = side / (1.0 + np.abs(rhs))
    checks.update(zip([f"row{i}" for i in range(len(row_checks))], row_checks.tolist()))
    for i in np.flatnonzero(senses != "=").tolist():
        checks[f"row{i}_dualsign"] = max(0.0, y[i] if senses[i] == "<=" else -y[i])

    for k, blk in enumerate(problem.blocks):
        if blk.cone == "psd":
            checks[f"dual_slack_block{k}"] = cone[f"dual_slack_block{k}"]
        elif k not in pairs:
            messages.append(f"no decomposition pair (P, Q) for PPT block {k}")
            checks[f"dual_slack_block{k}"] = np.inf
        else:
            for name in "PQ":
                checks[f"dual_slack_block{k}_{name}"] = cone[f"dual_slack_block{k}_{name}"]
            (p, q), z = pairs[k], slacks[k]
            resid = z - p - partial_transpose(q, blk.ppt_dims)
            checks[f"dual_slack_block{k}_residual"] = float(np.linalg.norm(resid)) / (1.0 + float(np.linalg.norm(z)))

    # the values the solution reports must match what its blocks/multipliers
    # achieve, and the reported pair must satisfy weak duality
    checks["primal_value"] = abs(solution.primal_value - pval) / (1.0 + abs(pval))
    checks["dual_value"] = abs(solution.dual_value - dval) / (1.0 + abs(dval))
    sp, sd = float(solution.primal_value), float(solution.dual_value)
    gap_scale = 1.0 + abs(sp) + abs(sd)
    if problem.sense == "min":
        checks["weak_duality"] = max(0.0, (sd - sp) / gap_scale)
    else:
        checks["weak_duality"] = max(0.0, (sp - sd) / gap_scale)
    checks["gap"] = abs(pval - dval) / (1.0 + abs(pval) + abs(dval))

    worst = float(np.max(list(checks.values())))  # NaN if any check is NaN
    bad = {k: v for k, v in checks.items() if not v <= tol}
    if bad:
        messages.append(f"violations above {tol:g}: {bad}")
    return CertificateReport(ok=not bad, max_violation=worst, checks=checks, messages=messages)
