#!/usr/bin/env python
"""Plugin-matrix byte-identity check (CI `plugin-matrix` job).

Proves the recognizer plugin registry is a strict no-op on corpora that
never exercise it: an IPv4-only synthetic network is anonymized under

  (a) the full default plugin set,
  (b) the default set with the ipv6 family disabled
      (``REPRO_PLUGINS_DISABLE=ipv6``), and
  (c) the registry off entirely (``plugins=()``),

across jobs=1 and jobs=2, plus

  (d) the full default plugin set with the rule dispatch off
      (``rule_prefilter=False``, every rule tried on every line) at
      jobs=1,

and every output file must be byte-identical in all seven runs.  Drift
in (a)-(c) means a plugin perturbed shared state (the pass-list, rule
ordering, freeze scans) even when none of its rules fired — exactly the
regression class this gate exists to catch.  Drift in (d) means some
rule trigger, under some plugin set, is not a necessary condition of
its rule and dropped a rewrite.

Exits nonzero on the first mismatch, printing the offending file.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import Anonymizer, AnonymizerConfig  # noqa: E402
from repro.iosgen import NetworkSpec, generate_network  # noqa: E402
from repro.plugins.registry import ENV_PLUGIN_DISABLE  # noqa: E402

SALT = b"plugin-matrix-gate"


def _corpus():
    spec = NetworkSpec(
        name="matrix-net",
        kind="enterprise",
        seed=23,
        num_pops=3,
        igp="isis",
        lans_per_access=(2, 4),
        use_community_regexps=True,
        junos_fraction=0.2,
    )
    return dict(generate_network(spec).configs)


def _run(configs, plugins, jobs, disable_env=None, prefilter=True):
    saved = os.environ.get(ENV_PLUGIN_DISABLE)
    try:
        if disable_env is None:
            os.environ.pop(ENV_PLUGIN_DISABLE, None)
        else:
            os.environ[ENV_PLUGIN_DISABLE] = disable_env
        anonymizer = Anonymizer(
            AnonymizerConfig(salt=SALT, plugins=plugins, rule_prefilter=prefilter)
        )
        result = anonymizer.anonymize_network(dict(configs), jobs=jobs)
        return {
            original: result.configs[renamed]
            for original, renamed in result.name_map.items()
        }, anonymizer.active_plugin_families
    finally:
        if saved is None:
            os.environ.pop(ENV_PLUGIN_DISABLE, None)
        else:
            os.environ[ENV_PLUGIN_DISABLE] = saved


def main() -> int:
    configs = _corpus()
    legs = [
        ("all-plugins", dict(plugins=None), (1, 2)),
        ("ipv6-disabled", dict(plugins=None, disable_env="ipv6"), (1, 2)),
        ("registry-off", dict(plugins=()), (1, 2)),
        ("prefilter-off", dict(plugins=None, prefilter=False), (1,)),
    ]
    reference = None
    reference_leg = None
    runs = 0
    for leg_name, leg, job_counts in legs:
        for jobs in job_counts:
            runs += 1
            outputs, families = _run(configs, jobs=jobs, **leg)
            label = "{} jobs={} families={}".format(
                leg_name, jobs, list(families) or "[]"
            )
            if reference is None:
                reference, reference_leg = outputs, label
                print("reference: {} ({} files)".format(label, len(outputs)))
                continue
            if sorted(outputs) != sorted(reference):
                print(
                    "FAIL: {} produced a different file set than {}".format(
                        label, reference_leg
                    )
                )
                return 1
            for name in sorted(reference):
                if outputs[name] != reference[name]:
                    print(
                        "FAIL: {!r} differs between {} and {}".format(
                            name, label, reference_leg
                        )
                    )
                    return 1
            print("ok: {} byte-identical to reference".format(label))
    print(
        "plugin-matrix: {} files byte-identical across {} runs".format(
            len(reference), runs
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
