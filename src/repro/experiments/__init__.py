"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...) -> ExperimentResult`` with parameters
defaulting to the paper's setup and a ``quick`` flag for fast benchmark
runs.  ``python -m repro`` (or the ``apple-experiments``
console script) regenerates everything and prints the paper-style rows.

| module   | reproduces                                             |
|----------|--------------------------------------------------------|
| table1   | Table I  — framework property comparison               |
| table4   | Table IV — VNF datasheets                               |
| table5   | Table V  — Optimization Engine computation time         |
| fig6     | Fig. 6   — loss rate vs packet receiving rate           |
| fig7     | Fig. 7   — throughput during failover (ClickOS boot)    |
| fig8     | Fig. 8   — CDF of 20 MB file TX time                    |
| fig9     | Fig. 9   — overload detection timeline                  |
| fig10    | Fig. 10  — TCAM usage reduction (tagging)               |
| fig11    | Fig. 11  — avg CPU core usage vs ingress strawman       |
| fig12    | Fig. 12  — packet loss over time, fast failover on/off  |
"""
