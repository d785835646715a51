"""Experiment reproductions: one module per paper table/figure.

Every module exposes ``run(scale=..., seed=...)`` returning a result
object with ``render()`` (paper-style text table) and ``data``
(machine-readable rows).  The expensive benchmark-mix pipeline is
shared and cached per ``(seed, scale)`` by
:mod:`repro.experiments.common`.  ``tab3`` and ``tab6`` also take a
``subsystem``: the CLI's ``tab3net``/``tab6net`` run them over the
net slice's column (see :mod:`repro.workloads.subsystems`).

==========  =====================================================
module      reproduces
==========  =====================================================
``fig1``    lock-usage / LoC growth across releases
``tab1``    clock-example access matrix (observed/folded/WoR)
``tab2``    clock-example hypotheses with s_a / s_r
``tab3``    benchmark code coverage (per subsystem column)
``tab4``    documented-rule validation summary
``tab5``    struct inode rule-check detail
``tab6``    mined-rule summary per data type (per subsystem column)
``fig7``    "no lock" fraction vs. accept threshold
``tab7``    rule-violation summary
``tab8``    rule-violation examples
``fig8``    generated locking documentation
``stats``   Sec. 7.2 trace statistics
==========  =====================================================
"""
