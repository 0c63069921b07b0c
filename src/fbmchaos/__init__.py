"""Fractional Brownian rough paths, weighted chaos sums, and limit-constant checks.

The package is organized around a single covariance kernel (gaussian), an
exact-in-law path sampler (fbm), iterated-integral lifts (lift), a rough
differential equation stepper (rde), the weighted / weight-free sum
processes with their exact second-moment oracles (chaos), and a
grid-function variation engine for multidimensional Young integrals (young).
Each module's ``__all__`` names its exports; the package exports them all.
"""

from . import chaos, errors, fbm, gaussian, lift, rde, young
from .chaos import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .fbm import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .lift import *  # noqa: F401,F403
from .rde import *  # noqa: F401,F403
from .young import *  # noqa: F401,F403

__all__ = [name for module in (errors, gaussian, fbm, lift, rde, chaos, young)
           for name in module.__all__]

__version__ = "0.1.0"
