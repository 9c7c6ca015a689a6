"""Hypothesis profiles for the suite (registered only; none is loaded).

``churn-sweep`` runs a sweep at the search size that found the support
tree's four hazards (DESIGN §12): 1,500 examples.  A test opts in by
leaving ``max_examples`` to the profile when it is active.  CI's
churn-smoke job runs two tests under it, randomised — the five-program
delete sweep and the engine-contract machine::

    PYTHONPATH=src python -m pytest tests/algorithms/test_support_tree.py \\
        -k heavy_churn --hypothesis-profile=churn-sweep
    PYTHONPATH=src python -m pytest tests/properties/test_engine_contract.py \\
        -k TestEngineContract --hypothesis-profile=churn-sweep

and reports (it does not gate) whether the machine, at that size, finds
the fence hazard in a support tree with rule 9 removed::

    PYTHONPATH=src python tests/properties/test_engine_contract.py
"""

from hypothesis import settings

settings.register_profile("churn-sweep", max_examples=1500, deadline=None)
