"""Public API smoke check: every ``api.__all__`` name resolves, the detector
registry is populated, and BSG4Bot builds through the public factory.

Run from the repository root::

    PYTHONPATH=src python ci/api_smoke.py
"""

import repro
import repro.api as api

missing = [name for name in api.__all__ if not hasattr(api, name)]
assert not missing, f"api.__all__ names missing attributes: {missing}"
names = api.available_detectors()
assert "bsg4bot" in names and len(names) >= 13, names
detector = api.create_detector({"name": "bsg4bot", "scale": None})
assert isinstance(detector, api.Detector)
print(f"repro {repro.__version__}: api surface OK ({len(names)} detectors)")
