"""Hypothesis profiles for the suite (registered only; none is loaded).

``churn-sweep`` runs a sweep at the search size that found the support
tree's four hazards (DESIGN §12): 1,500 examples.  A test opts in by
leaving ``max_examples`` to the profile when it is active; CI's
churn-smoke job runs the five-program sweep under it::

    PYTHONPATH=src python -m pytest tests/algorithms/test_support_tree.py \\
        -k heavy_churn --hypothesis-profile=churn-sweep
"""

from hypothesis import settings

settings.register_profile("churn-sweep", max_examples=1500, deadline=None)
