"""Acceptance suite: the paper's headline claims at their stated tolerances.

Every criterion is a row of ``ckl.verify.CHECKS``, the table of 18 checks
that ``ckl verify`` runs at ``FAST``; ``test_check_at_full_size`` runs every
row at ``FULL``:

- 1: ``sphere-operator-closed-form``;
- 2: ``leading-coefficients``;
- 3: ``engine-three-sphere``;
- 4: ``chord-expansion-sphere``;
- 5: ``volume-density-terms``;
- 6: ``bell-generating-identity``, ``bell-vanishing-below-4k`` and
  ``sphere-moments-vs-monte-carlo``;
- 7: ``cp-lemma-bound``;
- 8: ``equicurvature-scans``;
- 9: ``limit-criterion``;
- 10: ``curvature-propositions``.
"""

import pytest

from ckl.verify import CHECKS, FULL


@pytest.mark.parametrize("name", list(CHECKS))
def test_check_at_full_size(name):
    passed, detail = CHECKS[name](FULL)
    assert passed, detail
