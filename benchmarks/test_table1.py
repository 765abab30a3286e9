"""Table I regeneration: FLOPs reduction vs accuracy for every 'Proposed' row.

For each of the paper's six settings this benchmark runs the full pipeline
(pretrain → TTD ratio ascent → dynamic-pruned evaluation), projects the
measured mask statistics onto the paper's full-size architecture, and prints
the paper-reported vs measured FLOPs-reduction side by side.

What must reproduce (and is asserted):

* the projected full-scale FLOPs reduction lands near the paper's number —
  it is architecture arithmetic driven by the same ratio vectors;
* the dynamically-pruned model stays far above chance (TTD works);
* the measured benchmark time is the *pruned* inference pass.

Absolute accuracies are not comparable with the paper's: the data is
synthetic and the models are slim.
"""

import pytest

from repro.analysis.experiments import TABLE1_SETTINGS, run_table1_setting
from repro.core.training import evaluate
from repro.datasets import make_loaders

# Budget per setting, tuned for CPU: pretrain + coarse ascent + final stage.
RUN_KWARGS = dict(pretrain_epochs=5, ttd_epochs_per_stage=1, ttd_final_epochs=6, ttd_step=0.3)

# Tolerance on the projected FLOPs-reduction vs the paper's number.  Channel
# arithmetic is exact; spatial keep fractions are measured (mask-pattern
# dependent), so spatial-heavy settings get the wider margin.
TOLERANCE_PCT = {
    "vgg16_cifar10": 4.0,
    "resnet56_cifar10": 6.0,
    "vgg16_cifar100_s1": 4.0,
    "vgg16_cifar100_s2": 4.0,
    "vgg16_imagenet100_s1": 8.0,
    "vgg16_imagenet100_s2": 8.0,
}


@pytest.mark.parametrize("key", list(TABLE1_SETTINGS))
def test_table1_row(benchmark, key):
    outcome = run_table1_setting(key, **RUN_KWARGS)
    setting = outcome.setting

    # Benchmark the dynamically-pruned inference pass (the paper's runtime
    # object); training is setup, not measurement.
    _, test_loader = make_loaders(setting.dataset(), batch_size=32, seed=1)
    handle = outcome.instrumented

    benchmark.pedantic(
        lambda: evaluate(handle.model, test_loader), rounds=1, iterations=1
    )

    chance = 1.0 / setting.dataset().spec.num_classes

    print(f"\n[{setting.name}]")
    print(f"  ratios: ch={list(setting.channel_ratios)} sp={list(setting.spatial_ratios)}")
    print(
        f"  FLOPs reduction: paper {setting.paper_reduction_pct:.1f}% | "
        f"projected full-scale {outcome.full_scale_reduction_pct:.1f}% | "
        f"harness {outcome.harness_reduction_pct:.1f}%"
    )
    print(
        f"  composition: channel {outcome.full_scale_channel_pct:.1f}% + "
        f"spatial {outcome.full_scale_spatial_pct:.1f}%"
    )
    print(
        f"  accuracy: baseline {outcome.baseline_accuracy:.3f} -> "
        f"pruned {outcome.pruned_accuracy:.3f} (chance {chance:.2f})"
    )

    tolerance = TOLERANCE_PCT[key]
    assert outcome.full_scale_reduction_pct == pytest.approx(
        setting.paper_reduction_pct, abs=tolerance
    ), f"projected reduction deviates more than {tolerance} points from the paper"
    assert outcome.pruned_accuracy > 2.5 * chance, "TTD failed to preserve pruned accuracy"
    assert outcome.baseline_accuracy > outcome.pruned_accuracy - 0.05  # pruning never helps much
