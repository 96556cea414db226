"""Statistics and imputation for item-by-participant tables with missing data.

The package centers on the consistency-of-averages intraclass correlation
(ICC) of rectangular behavioral data tables: computing it on tables with
missing cells, correcting it (and predictor goodness-of-fit statistics)
for the missing proportion, imputing missing cells so that item means and
a target ICC are preserved, and validating the additive data model by
permutation resampling.

Exports load on first use (PEP 562), so ``import icctab`` and the command
line import only the modules they run.  ``_EXPORTS`` writes each public
name once; a submodule's ``__all__`` is its row, and a new name goes there.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the names it exports here and in its own __all__
_EXPORTS = {
    "anova": "AnovaDecomposition IccReport anova corrected_icc corrected_interval "
             "expected_icc icc_report",
    "ecvt": "EcvtReport default_group_sizes ecvt",
    "errors": "IccTabError NumericError PreconditionError StructuralError TableFormatError "
              "UnreachableTargetError",
    "fit": "PredictorFit R2BiasPoint RatioCurvePoint corrected_r2 fit_predictors "
           "r2cor_bias_demo r2_icc_curve",
    "impute": "AriBiasPoint ImputationOutcome RecoveryPoint ari_bias_demo "
              "ari_impute crari_impute crari_recovery_study",
    "rand": "as_generator split_seed",
    "special": "beta_quantile chi2_upper_tail f_quantile reg_inc_beta",
    "synth": "SynthSpec SynthTruth alpha_cdf degrade_random generate",
    "table": "DataTable load_csv mix_rows save_csv virtualize zscore",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Keeps ``icctab.anova`` and ``icctab.ecvt`` the functions.

    Importing a submodule binds it on its package under its own name, and
    these two submodules share that name with the function they export.
    """

    def __setattr__(self, name, value):
        if not (isinstance(value, types.ModuleType) and _SOURCE.get(name) == name):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
