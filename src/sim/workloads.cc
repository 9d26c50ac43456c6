/**
 * @file
 * Workload helper implementation.
 */

#include "sim/workloads.hh"

#include <algorithm>

namespace pifetch {

Program
buildWorkloadProgram(ServerWorkload w, std::uint64_t seed_offset)
{
    return WorkloadGenerator::build(workloadParams(w, seed_offset));
}

ExecutorConfig
executorConfigFor(const WorkloadParams &params, std::uint64_t seed_offset)
{
    ExecutorConfig cfg;
    cfg.seed = params.seed ^ (0xabcdef123456ull + seed_offset);
    cfg.interruptRate = params.interruptRate;
    cfg.maxCallDepth = params.maxCallDepth;
    return cfg;
}

ExecutorConfig
executorConfigFor(ServerWorkload w, std::uint64_t seed_offset)
{
    return executorConfigFor(workloadParams(w), seed_offset);
}

ExecutorConfig
executorConfigFor(const LoweredWorkload &lw, std::uint64_t params_offset,
                  std::uint64_t exec_offset)
{
    ExecutorConfig cfg =
        executorConfigFor(lw.params(0, params_offset), exec_offset);
    cfg.interruptRate = lw.blendedInterruptRate();
    for (const WorkloadSpecProgram &pr : lw.spec.programs)
        cfg.maxCallDepth =
            std::max(cfg.maxCallDepth, pr.params.maxCallDepth);
    cfg.rootSpanSizes = lw.rootSpans();
    cfg.phases = lw.executorPhases();
    return cfg;
}

std::string
WorkloadRef::key() const
{
    return spec_ ? spec_->key() : workloadKey(preset_);
}

std::string
WorkloadRef::name() const
{
    return spec_ ? spec_->title() : workloadName(preset_);
}

std::string
WorkloadRef::group() const
{
    return spec_ ? spec_->group() : workloadGroup(preset_);
}

WorkloadParams
WorkloadRef::params(std::uint64_t seed_offset) const
{
    return spec_ ? spec_->params(0, seed_offset)
                 : workloadParams(preset_, seed_offset);
}

Program
WorkloadRef::buildProgram(std::uint64_t seed_offset) const
{
    return spec_ ? spec_->build(seed_offset)
                 : buildWorkloadProgram(preset_, seed_offset);
}

ExecutorConfig
WorkloadRef::executorConfig(std::uint64_t params_offset,
                            std::uint64_t exec_offset) const
{
    if (spec_)
        return executorConfigFor(*spec_, params_offset, exec_offset);
    return executorConfigFor(workloadParams(preset_, params_offset),
                             exec_offset);
}

WorkloadRef
workloadRefFromSpec(WorkloadSpec spec)
{
    return WorkloadRef(std::make_shared<const LoweredWorkload>(
        lowerWorkloadSpec(std::move(spec))));
}

std::optional<WorkloadRef>
resolveWorkload(const std::string &value, bool is_file, std::string *err)
{
    std::string path = value;
    if (!is_file) {
        if (const std::optional<ServerWorkload> w = workloadFromName(value))
            return WorkloadRef(*w);
        const auto entry = findZooEntry(value);
        if (!entry) {
            if (err) {
                std::string known;
                for (ServerWorkload w : allServerWorkloads())
                    known += workloadKey(w) + ", ";
                for (const WorkloadZooEntry &e : workloadZoo())
                    known += e.key + ", ";
                *err = "unknown workload '" + value + "' (known: " +
                       known.substr(0, known.size() - 2) + ")";
            }
            return std::nullopt;
        }
        path = entry->path;
    }
    auto spec = loadWorkloadSpecFile(path, err);
    if (!spec)
        return std::nullopt;
    return workloadRefFromSpec(std::move(*spec));
}

} // namespace pifetch
