"""Security at the sensing and actuation layer (paper §V-E).

The paper notes that 802.15.4-family standards *include* secure modes
but they are *hardly implemented* because of resource constraints.  This
package provides the pieces to quantify that tension:

- :mod:`repro.security.keys` / :mod:`repro.security.auth` — link-layer
  frame authentication (network-wide key, per-frame MIC) pluggable into
  any MAC via its ``frame_filter`` hook;
- :mod:`repro.security.crypto_cost` — the CPU/energy/latency price of
  software crypto on Class-1 hardware (experiment E11's overhead axis);
- :mod:`repro.security.attacks` — the command-injection adversary
  (E11's impact axis; a run jams through an ``InterferenceClause``);
- :mod:`repro.security.detector` — a lightweight anomaly monitor.
"""
