//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the compress splitter (src/backend) — a plain-data
/// header so PipelineConfig can embed it without pulling the splitter's
/// engine dependencies into every core include.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BACKEND_BACKENDCONFIG_H
#define PADRE_BACKEND_BACKENDCONFIG_H

namespace padre {
namespace backend {

/// How the splitter partitions each batch across backends.
///
///   FollowMode — the PipelineMode's placement (the default): every
///                chunk on the CPU pool in cpu-only and gpu-dedup,
///                every chunk on the devices in gpu-compress and
///                gpu-both. The CPU modes drive no device, so GPU-less
///                platforms work.
///   Auto       — the HPDR-style tuner picks the device share per batch
///                from observed per-side rates (EWMA, seeded from the
///                static cost-model quotes) and pipelines the device
///                share at sub-batch granularity.
///   Fixed      — a static fraction of each batch's bytes to the
///                devices (BackendConfig::Fraction); no tuning. Fixed 0
///                drives no device.
enum class SplitMode { FollowMode, Auto, Fixed };

/// Returns "mode", "auto" or "fixed".
const char *splitModeName(SplitMode Mode);

/// Backend-framework knobs, embedded in PipelineConfig::Backend.
struct BackendConfig {
  /// Modelled GPUs driven by the splitter (>= 1). Devices past
  /// the first are extra GpuDevice instances with independent
  /// staging/queues on their own timeline lanes.
  unsigned GpuDevices = 1;
  SplitMode Split = SplitMode::FollowMode;
  /// Fixed-mode device share of each batch's bytes, clamped to [0, 1].
  double Fraction = 1.0;
  /// Tuner observation window in batches: the EWMA smoothing factor is
  /// 2 / (TunerWindow + 1). Clamped to >= 1.
  unsigned TunerWindow = 8;
};

} // namespace backend
} // namespace padre

#endif // PADRE_BACKEND_BACKENDCONFIG_H
