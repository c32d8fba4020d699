"""Counting problems and exponential sums in prime fields, exactly."""

from .countvec import CountVector
from .energy import (additive_energy_recip, count_vector_product, energy_J,
                     energy_Js, triple_R)
from .errors import (BudgetError, ConsistencyError, DomainError, SetFileError,
                     ZeroInIntervalError)
from .modfield import (PrimeContext, batch_inverse, build_dlog_table,
                       find_primitive_root, is_prime)
from .prodset import ProductSetReport, product_set, ratio_set
from .sets import (Interval, ResidueSet, initial_interval, random_subset,
                   residue_set, set_from_file, shifted_interval)
from .spectra import (CharSpectrum, CompleteSumTable, burgess_ratio,
                      char_spectrum, complete_sum_table, kloosterman_frac_sum)
from .tkcount import TkReport, tk_experiment, tk_spectral_check
from .verify import ReportRow, SweepConfig, fit_exponent, parse_config, run_sweep

__version__ = "0.1.0"
