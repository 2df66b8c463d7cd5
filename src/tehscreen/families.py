"""Exponential families: the one home of family-specific arithmetic.

Two members are supported: gaussian with identity link and binomial with
logit link, whose inverse is the closed form 1/(1 + exp(-eta)). Each owns
its link, IRLS working weights and response (McCullagh & Nelder 1989, GLMs,
2nd ed., section 2.5) and outcome draw, so no other module re-derives them.
The gaussian log-likelihood profiles out the variance (sigma2 = RSS/n), so
likelihood-ratio statistics reduce to n*log(RSS0/RSS1).
"""

import numpy as np

from .errors import ConfigError, DataError

# Guards: PROB_CLIP applies inside likelihood evaluation only, MU_EPS to the
# mean in the logit and the IRLS working weights (the lasso's too); the
# variance floor keeps interpolating gaussian fits finite.
PROB_CLIP = 1e-12
MU_EPS = 1e-10
VARIANCE_FLOOR = 1e-12
_LOG_2PI = float(np.log(2.0 * np.pi))


class Family:
    """One exponential-family member with its canonical link.

    Members define check_response, link, inverse_link, initial_mu,
    working(y, eta, mu) -> (w, z) (the weights and working response of one
    IRLS step, dispersion excluded), sample(eta, scale, rng) (outcomes drawn
    around the linear predictor; only gaussian reads the noise SD
    ``scale``), log_likelihood, deviance and dispersion (the scale factor
    multiplying (X'WX)^-1 to give the coefficient covariance).
    """

    name: str

    def __repr__(self):
        return f"Family({self.name})"


class Gaussian(Family):
    name = "gaussian"

    def check_response(self, y):
        if not np.all(np.isfinite(y)):
            raise DataError("gaussian response contains non-finite values")

    def link(self, mu):
        return mu

    def inverse_link(self, eta):
        return eta

    def initial_mu(self, y):
        return np.full_like(y, float(np.mean(y)), dtype=float)

    def working(self, y, eta, mu):
        return np.ones_like(mu), y

    def sample(self, eta, scale, rng):
        return eta + scale * rng.standard_normal(eta.shape[0])

    def log_likelihood(self, y, mu):
        rss = float(np.sum((y - mu) ** 2))
        sigma2 = max(rss / y.shape[0], VARIANCE_FLOOR)
        return -0.5 * y.shape[0] * (_LOG_2PI + np.log(sigma2) + 1.0)

    def deviance(self, y, mu):
        return float(np.sum((y - mu) ** 2))

    def dispersion(self, y, mu):
        return max(self.deviance(y, mu) / y.shape[0], VARIANCE_FLOOR)


class Binomial(Family):
    name = "binomial"

    def check_response(self, y):
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("binomial response must contain only 0 and 1")

    def inverse_link(self, eta):
        # 1/(1+exp(-eta)) with eta floored at -700, so exp stays finite and
        # emits no overflow warning; the floor moves mu by less than 1e-304.
        return 1.0 / (1.0 + np.exp(-np.maximum(eta, -700.0)))

    def link(self, mu):
        p = np.clip(mu, MU_EPS, 1.0 - MU_EPS)
        return np.log(p / (1.0 - p))

    def initial_mu(self, y):
        # Shrink toward 0.5 so the first working response is finite.
        return (y + 0.5) / 2.0

    def working(self, y, eta, mu):
        p = np.clip(mu, MU_EPS, 1.0 - MU_EPS)
        w = p * (1.0 - p)
        return w, eta + (y - p) / w

    def sample(self, eta, scale, rng):
        return rng.binomial(1, self.inverse_link(eta)).astype(float)

    def log_likelihood(self, y, mu):
        p = np.clip(mu, PROB_CLIP, 1.0 - PROB_CLIP)
        return float(np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))

    def deviance(self, y, mu):
        # Saturated log-likelihood is 0 for a 0/1 response.
        return -2.0 * self.log_likelihood(y, mu)

    def dispersion(self, y, mu):
        return 1.0


GAUSSIAN = Gaussian()
BINOMIAL = Binomial()

_BY_NAME = {"gaussian": GAUSSIAN, "binomial": BINOMIAL}


def family_from_name(name):
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ConfigError(
            f"config field 'family' must be one of {sorted(_BY_NAME)}, got {name!r}"
        ) from None
