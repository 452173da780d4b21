"""dcl1lint — simulator-aware static analysis for dcl1sim.

A small analyzer framework that replaces the historical regex script
(tools/lint_sim.py). It models C++ source precisely enough to be
trustworthy — comments and string literals are lexed into separate
channels, function bodies are tracked by brace scope, and the include
graph is checked against the architecture layering — while staying
dependency-free: a built-in tokenizer recovers function extents.

Entry points:
  python3 tools/dcl1lint [paths...]      # lint the tree
  python3 tools/dcl1lint --list-rules    # rule reference
  python3 tools/dcl1lint/selftest.py     # fixture self-test
"""

__version__ = "2.0"
