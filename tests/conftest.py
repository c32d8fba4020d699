import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fplab.modfield import PrimeContext


@pytest.fixture
def ctx():
    """Context factory: the package's shared cache, PrimeContext.of."""
    return PrimeContext.of
