"""Trial data representation, CSV ingestion, and synthetic RCT generation.

A :class:`TrialDataset` holds the outcome, the randomized arm indicator, the
interaction-candidate covariates, and any pre-declared adjustment covariates.
Missing data is rejected, never imputed: multiply-imputed workflows run the
pipeline once per complete input file.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, DataError, DegenerateDesignError
from .families import GAUSSIAN, Family


_BLOCKS = {"y": float, "treatment": int, "x_candidates": float, "x_adjust": float}
_NAMES = {"x_candidates": "candidate_names", "x_adjust": "adjust_names"}


@dataclass(frozen=True)
class TrialDataset:
    """Immutable two-arm trial data.

    Attributes
    ----------
    y : (n,) float array
        Outcome; real-valued for gaussian, {0,1} for binomial analyses.
    treatment : (n,) int array
        Randomized arm indicator, 1 = treatment arm, 0 = control arm.
    x_candidates : (n, p) float array
        Interaction-candidate covariates.
    x_adjust : (n, p_c) float array
        Covariates adjusted for but never tested for interaction (p_c may be 0).

    Each block is a read-only copy of what it was given, checked on
    construction; the caller's arrays stay writable and later writes to them
    do not reach the dataset. :meth:`derive` copies and checks only the blocks
    it replaces, plus the row counts and the names, and shares the rest.
    """

    y: np.ndarray
    treatment: np.ndarray
    x_candidates: np.ndarray
    x_adjust: np.ndarray
    candidate_names: tuple = ()
    adjust_names: tuple = ()

    def __post_init__(self):
        self._check(_BLOCKS)

    def _check(self, blocks):
        """Copy, freeze and check the named blocks, then the row counts and the names."""
        if "x_adjust" in blocks and np.size(self.x_adjust) == 0:
            object.__setattr__(self, "x_adjust", np.empty((np.shape(self.y)[0], 0)))
        for name in [b for b in _BLOCKS if b in blocks]:
            a = np.array(getattr(self, name), _BLOCKS[name], order="C", ndmin=2 * name.startswith("x_"))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        y, t, xs, xc = self.y, self.treatment, self.x_candidates, self.x_adjust
        n = y.shape[0]
        if t.shape != (n,) or xs.shape[0] != n or xc.shape[0] != n:
            raise DataError("y, treatment, and covariate matrices must share the row count")
        for name in ("y", "x_candidates", "x_adjust"):
            if name in blocks and not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"{name} contains non-finite values")
        if "treatment" in blocks:
            if not np.all((t == 0) | (t == 1)):
                raise DataError("treatment indicator must contain only 0 and 1")
            if t.min() == t.max():
                raise DegenerateDesignError("treatment column is constant; both arms are required")

        cn = tuple(self.candidate_names) or tuple(f"x{j + 1}" for j in range(xs.shape[1]))
        an = tuple(self.adjust_names) or tuple(f"c{j + 1}" for j in range(xc.shape[1]))
        if len(cn) != xs.shape[1]:
            raise DataError("candidate_names length does not match x_candidates width")
        if len(an) != xc.shape[1]:
            raise DataError("adjust_names length does not match x_adjust width")
        object.__setattr__(self, "candidate_names", cn)
        object.__setattr__(self, "adjust_names", an)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.x_candidates.shape[1]

    @property
    def p_c(self):
        return self.x_adjust.shape[1]

    def derive(self, **blocks):
        """This dataset with the given fields replaced, as :func:`dataclasses.replace`
        gives it; a new covariate block needs its names (``()`` gives the defaults)."""
        unknown = sorted(blocks.keys() - vars(self).keys())
        if unknown:
            raise TypeError(f"derive() got unexpected field(s) {unknown}")
        for block, names in _NAMES.items():
            if block in blocks and names not in blocks:
                raise TypeError(f"derive({block}=...) needs {names}; () gives the defaults")
        derived = object.__new__(type(self))
        vars(derived).update(vars(self), **blocks)
        derived._check(blocks.keys())
        return derived


MAX_N = 10**6  # largest synthetic trial
MAX_P = 10**4  # most synthetic candidates: generate_trial factors a p x p correlation matrix


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings for one synthetic two-arm trial.

    ``interaction_effects`` is the per-covariate arm contrast added to the
    linear predictor on the treated arm; the zero vector encodes the global
    null of no treatment-covariate interaction.
    """

    n: int
    p: int
    family: Family = GAUSSIAN
    intercept: float = 0.0
    main_effects: tuple = ()
    treatment_effect: float = 0.0
    interaction_effects: tuple = ()
    adjust_effects: tuple = ()
    covariate_correlation: float = 0.0
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # Checked before anything of size n or p is built.
        if not 4 <= self.n <= MAX_N:
            raise DataError(f"need 4 <= n <= {MAX_N}, got n={self.n}")
        if not 1 <= self.p <= MAX_P:
            raise DataError(f"need 1 <= p <= {MAX_P}, got p={self.p}")
        object.__setattr__(self, "main_effects", _expand(self.main_effects, self.p, "main_effects"))
        object.__setattr__(
            self, "interaction_effects", _expand(self.interaction_effects, self.p, "interaction_effects")
        )
        object.__setattr__(self, "adjust_effects", tuple(float(v) for v in self.adjust_effects))
        if self.family is GAUSSIAN and not self.noise_sd > 0:
            raise DataError("noise_sd must be > 0")
        rho = self.covariate_correlation
        if np.isscalar(rho):  # an equicorrelation matrix is positive definite iff -1/(p-1) < rho < 1
            if not (rho * (self.p - 1) > -1.0 and rho < 1.0):
                raise DataError(f"covariate_correlation must lie in (-1/(p-1), 1) at p={self.p}, "
                                f"where its matrix is positive definite; got {rho!r}")
        else:
            try:
                m = np.asarray(rho, dtype=float)
            except ValueError:  # ragged rows
                m = np.empty(0)
            if m.shape != (self.p, self.p) or not np.allclose(m, m.T):
                raise DataError("covariate_correlation must be scalar or a symmetric p x p matrix")
            if np.any(m.diagonal() != 1.0):
                raise DataError("covariate_correlation matrix must have a unit diagonal: "
                                "the covariates have unit variances")
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                raise DataError("covariate_correlation matrix is not positive definite") from None

    @property
    def p_c(self):
        return len(self.adjust_effects)

    def correlation_matrix(self):
        c = self.covariate_correlation
        if np.isscalar(c):
            m = np.full((self.p, self.p), float(c))
            np.fill_diagonal(m, 1.0)
            return m
        return np.asarray(c, dtype=float)


def _expand(values, p, name):
    if values is None or (np.isscalar(values) and values == 0) or len(np.atleast_1d(values)) == 0:
        return tuple(0.0 for _ in range(p))
    arr = tuple(float(v) for v in np.atleast_1d(values))
    if len(arr) != p:
        raise DataError(f"{name} must have length p={p}")
    return arr


def balanced_assignment(n, rng):
    """Arm labels balanced to within one unit, in random order."""
    t = np.zeros(n, dtype=int)
    t[: n // 2] = 1
    return rng.permutation(t)


def generate_trial(spec: SyntheticSpec) -> TrialDataset:
    """Draw one synthetic trial from ``spec``.

    Covariates are multivariate normal with the requested correlation (unit
    variances); adjusters are independent standard normal; arms come from a
    balanced permutation. The linear predictor is
    ``intercept + x.beta + t*theta + t*(x.delta) + x_c.beta_c`` and the
    family draws the outcome: Normal(eta, noise_sd) or Bernoulli(logit^-1(eta)).
    Identical specs (including seed) produce identical datasets.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    corr = spec.correlation_matrix()
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise DataError("covariate correlation matrix is not positive definite") from exc

    x = rng.standard_normal((spec.n, spec.p)) @ chol.T
    x_adj = rng.standard_normal((spec.n, spec.p_c)) if spec.p_c else np.empty((spec.n, 0))
    t = balanced_assignment(spec.n, rng)

    eta = spec.intercept + x @ np.asarray(spec.main_effects) + t * spec.treatment_effect
    eta = eta + t * (x @ np.asarray(spec.interaction_effects))
    if spec.p_c:
        eta = eta + x_adj @ np.asarray(spec.adjust_effects)

    y = spec.family.sample(eta, spec.noise_sd, rng)
    return TrialDataset(y=y, treatment=t, x_candidates=x, x_adjust=x_adj)


def load_csv(path, outcome_col, treatment_col, adjust_cols=()) -> TrialDataset:
    """Read a trial dataset from an RFC-4180 CSV with a header row.

    Header names must be unique; a UTF-8 byte-order mark is ignored. Every
    column other than the outcome, treatment, and adjustment columns becomes
    an interaction candidate, in file order. Any empty or non-numeric cell is
    an error naming its (1-based) row and column; non-finite values are
    rejected the same way.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: file is empty; a header row is required") from None
        rows = list(reader)

    header = [h.strip() for h in header]
    index = {h: j for j, h in enumerate(header)}
    if len(index) < len(header):
        twice = next(h for j, h in enumerate(header) if index[h] != j)
        raise DataError(f"column {twice!r} is named twice in the header of {path}")
    adjust_cols = list(adjust_cols)
    for col in [outcome_col, treatment_col, *adjust_cols]:
        if col not in index:
            raise DataError(f"column {col!r} not found in {path} (header: {header})")
    special = {outcome_col, treatment_col, *adjust_cols}
    candidate_names = [h for h in header if h not in special]

    n = len(rows)
    if n == 0:
        raise CsvParseError(f"{path}: no data rows")

    def parse(row_cells, row_number, col_name):
        cell = row_cells[index[col_name]].strip()
        try:
            value = float(cell)
        except ValueError:
            value = None
        if value is None or not np.isfinite(value):
            defect = ("empty cell" if cell == "" else f"cannot parse {cell!r}" if value is None
                      else "non-finite value")
            raise CsvParseError(f"{path}: {defect} at row {row_number}, column {col_name!r}",
                                row=row_number, column=col_name)
        return value

    roles = [outcome_col, treatment_col, *candidate_names, *adjust_cols]  # the columns of values
    values = np.empty((n, len(roles)))
    for i, cells in enumerate(rows):
        row_number = i + 2  # 1-based, counting the header
        if len(cells) != len(header):
            raise CsvParseError(f"{path}: row {row_number} has {len(cells)} cells, expected {len(header)}")
        for j, name in enumerate(roles):
            values[i, j] = parse(cells, row_number, name)

    if not np.all(np.isin(values[:, 1], (0.0, 1.0))):
        raise DataError(f"{path}: treatment column {treatment_col!r} must contain only 0 and 1")
    end = 2 + len(candidate_names)
    return TrialDataset(
        y=values[:, 0], treatment=values[:, 1], x_candidates=values[:, 2:end], x_adjust=values[:, end:],
        candidate_names=tuple(candidate_names), adjust_names=tuple(adjust_cols),
    )


def csv_rows(data: TrialDataset, outcome_col="y", treatment_col="treatment"):
    """Yield one dict per subject, keyed by CSV header name.

    Values are Python floats (ints for the arm), whose str() is the shortest
    string that parses back to the identical double.
    """
    names = [outcome_col, treatment_col, *data.candidate_names, *data.adjust_names]
    if len(set(names)) < len(names):  # a dict row would silently drop a column
        raise DataError(f"column names repeat, so the CSV could not be read back: {names}")
    blocks = zip(data.y.tolist(), data.treatment.tolist(), data.x_candidates, data.x_adjust)
    for y, t, x, c in blocks:
        yield dict(zip(names, [y, t, *x.tolist(), *c.tolist()]))


def write_rows(path, rows):
    """Write dict rows as CSV, the first row's keys as the header; ``rows`` may be lazy."""
    rows = iter(rows)
    first = next(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(first))
        writer.writeheader()
        writer.writerow(first)
        writer.writerows(rows)


def write_csv(data: TrialDataset, path, outcome_col="y", treatment_col="treatment"):
    """Write a dataset so that load_csv round-trips it bit-for-bit."""
    write_rows(path, csv_rows(data, outcome_col, treatment_col))
