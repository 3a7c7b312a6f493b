"""Batch toolkit for checking realtime observers on discrete state graphs.

Pipeline: generate the state graph of an observer composed with a universal
environment (`timednet`), compile the timed pattern's path expressions into
mu-calculus formulas with forward and backward modalities (`pathregex`,
`mucompile`), and model-check the resulting tautology and reachability
conditions (`mucalc`, `checker`), cross-validated by brute-force oracles
(`pathregex`, `fott`).
"""

from ._scan import ParseError
from .checker import (
    Report,
    Verdict,
    check_eq,
    check_inclusion_naive,
    check_innocuous,
    check_reachable,
    find_tickless_cycle,
    full_report,
    internal_label_expr,
)
from .fott import Interval, delta, eval_fott, interval_ticks, present_fott, present_regex
from .lts import (
    LabelExpr,
    Lts,
    StateSet,
    eval_label_expr,
    format_label_expr,
    load_aut,
    parse_label_expr,
    save_aut,
    to_dot,
)
from .mucalc import (
    MuFormula,
    check_monotone,
    eval_mu,
    is_tautology,
    parse_mu,
    print_mu,
)
from .mucompile import compile_end, compile_visited, error_condition, reach_formula
from .pathregex import (
    Nfa,
    PathRegex,
    Word,
    build_nfa,
    match_word,
    oracle_end_states,
    oracle_states,
    oracle_visited_states,
    parse_regex,
)
from .timednet import (
    NetError,
    TimedNet,
    builtin_mouse,
    builtin_present,
    explore,
    explore_full,
    parse_net,
)

__version__ = "0.1.0"
