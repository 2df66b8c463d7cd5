"""Exponential-family definitions shared by the GLM fitter and the data generator.

Two members are supported: gaussian with identity link and binomial with
logit link, whose inverse is the closed form 1/(1 + exp(-eta)). The gaussian
log-likelihood profiles out the variance (sigma2 = RSS/n), so likelihood-ratio
statistics reduce to n*log(RSS0/RSS1).
"""

import numpy as np

from .errors import ConfigError, DataError

# Guards: probability clipping applies inside likelihood evaluation only;
# the variance floor keeps interpolating gaussian fits finite.
PROB_CLIP = 1e-12
VARIANCE_FLOOR = 1e-12
_LOG_2PI = float(np.log(2.0 * np.pi))


class Family:
    """One exponential-family member with its canonical link.

    Members define check_response, inverse_link, initial_mu, irls_weights
    (the working weights for one IRLS step, dispersion excluded),
    log_likelihood, deviance and dispersion (the scale factor multiplying
    (X'WX)^-1 to give the coefficient covariance).
    """

    name: str

    def __repr__(self):
        return f"Family({self.name})"


class Gaussian(Family):
    name = "gaussian"

    def check_response(self, y):
        if not np.all(np.isfinite(y)):
            raise DataError("gaussian response contains non-finite values")

    def inverse_link(self, eta):
        return eta

    def initial_mu(self, y):
        return np.full_like(y, float(np.mean(y)), dtype=float)

    def irls_weights(self, mu):
        return np.ones_like(mu)

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

    def initial_mu(self, y):
        # Shrink toward 0.5 so the first working response is finite.
        return (y + 0.5) / 2.0

    def irls_weights(self, mu):
        return mu * (1.0 - mu)

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
