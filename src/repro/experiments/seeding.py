"""Per-cell seeded streams shared by every experiment driver.

The implementation lives in :mod:`repro.core.seeding` (so that lower
layers can derive cell streams without importing the experiments
package); this module remains the historical
import location for the drivers and re-exports the helpers unchanged.
See the core module's docstring for the key-encoding contract.
"""

from __future__ import annotations

from repro.core.seeding import cell_generator, cell_seed, cell_sequence

__all__ = ["cell_generator", "cell_seed", "cell_sequence"]
