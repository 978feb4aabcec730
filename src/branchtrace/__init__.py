"""Branch traces: input-selected computation paths and their statistics.

The package follows one object through several settings: the L/R string
of conditional branches a computation takes for a given input.

* :mod:`branchtrace.collatz` records and inverts half-or-triple
  trajectory traces and surveys ranges of inputs.
* :mod:`branchtrace.rule30` evolves the chaotic elementary cellular
  automaton and extracts its center column as a bit source.
* :mod:`branchtrace.randstat` scores bitstreams with a small battery of
  classical randomness tests.
* :mod:`branchtrace.bounds` tallies description-length accounting over
  input ranges and enumerates composition paths.
* :mod:`branchtrace.dyncompose` is a toy keyed digest whose round
  schedule is its own branch trace (not a cryptographic primitive).
* :mod:`branchtrace.cli` is the `branchtrace` command.

Each package-level name loads its module on first use (PEP 562), so
``import branchtrace`` alone imports no submodule and no numpy.
"""

__version__ = "1.0.0"

# Each public name, under the module that defines it; a module listed
# among its own names is exported as the module itself.
_MODULE_NAMES = {
    "bounds": "bounds BoundReport bound_report composition_labels description_bits paths_at_depth",
    "collatz": "collatz StopMode StopReason StopRule SurveyResult TraceRecord decode replay "
               "survey trace",
    "dyncompose": "dyncompose",
    "errors": "BranchTraceError DomainError InconsistentTrace KeyLengthError ResourceError",
    "prng": "XorShift64Star",
    "randstat": "randstat AvalancheReport TestReport avalanche battery monobit runs_test "
                "serial_test shannon_entropy",
    "rule30": "rule30 BoundaryMode Grid Row center_column evolve random_row step_row",
    "special": "special",
}
_HOME = {name: module for module, names in _MODULE_NAMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's own path, so that -X importtime times it.
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=["*"])
    globals()[name] = module if name == _HOME[name] else getattr(module, name)
    return globals()[name]  # kept, so later lookups skip this function


def __dir__():
    return sorted({*globals(), *__all__})
