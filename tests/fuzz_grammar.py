"""The CLI fuzz grammar, with no import beyond the standard library, so
that golden.py runs under any CPython, with or without hypothesis.

Each tuple holds the valid choices first, then the odd ones: header
forms, dim tokens, entries and --field/--p arguments that the parsers
must accept or refuse in one line.  test_cli.py draws from it, and the
golden corpus (golden.py) runs each odd token and argument list once.
"""

FUZZ_MODULI = (["2", "3", "7"], ["0", "4", "-3", str(2 ** 61 - 1), "1" + "0" * 29])
FUZZ_DIMS = (["1", "2", "3"], ["0", "-1", "x", "1_0", "\u0661", "2 2"])
FUZZ_TOKENS = (["0", "0", "1", "-1", "2", "1/2", "-2/3"],
               ["1/0", "0.5", "\u0661", "\uff11", "9" * 4301, "1_0"])
FUZZ_ARGS = ([[], [], ["--p", "3"], ["--field", "prime", "--p", "7"], ["--field", "rational"]],
             [["--field", "prime"], ["--field", "rational", "--p", "2"], ["--p", "4"],
              ["--p", "-3"], ["--p", "0"], ["--p", str(2 ** 61 - 1)]])
