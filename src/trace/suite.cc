#include "trace/suite.hh"

#include <stdexcept>
#include <unordered_set>

#include "trace/corpus.hh"
#include "trace/trace_file.hh"

namespace hermes
{

std::unique_ptr<Workload>
TraceSpec::make() const
{
    if (source == TraceSource::File)
        return std::make_unique<FileWorkload>(filePath);
    return std::make_unique<SyntheticWorkload>(params);
}

void
validateUniqueTraceNames(const std::vector<TraceSpec> &suite)
{
    std::unordered_set<std::string> seen;
    for (const auto &spec : suite)
        if (!seen.insert(spec.name()).second)
            throw std::invalid_argument("duplicate trace name in suite: " +
                                        spec.name());
}

namespace
{

/**
 * One suite workload: its name without the trace suffix, its paper
 * category and the corpus spec (trace/corpus.hh) that generates it.
 */
struct SuiteRow
{
    const char *name;
    const char *category;
    const char *spec;
};

// Each row mirrors the memory behaviour of a workload in the paper's
// trace list.
constexpr SuiteRow kRows[] = {
    // mcf: dependent pointer chasing over a large working set.
    {"spec06.mcf_like", "SPEC06",
     "corpus.chase:footprint_mb=64:hit_frac=0.5:alu=16:seed=101"},
    // lbm: dense streaming with stores.
    {"spec06.lbm_like", "SPEC06",
     "corpus.stream:footprint_mb=64:mlp=24:store_frac=0.35:seed=102"},
    // libquantum: long unit-stride sweeps, few branches mispredict.
    {"spec06.libquantum_like", "SPEC06",
     "corpus.stream:footprint_mb=32:stride=16:alu=8:branch_frac=0.02:"
     "seed=103"},
    // omnetpp: pointer-heavy with moderate locality.
    {"spec06.omnetpp_like", "SPEC06",
     "corpus.chase:footprint_mb=24:chains=1:hit_frac=0.8:hot_kb=64:alu=24:"
     "seed=104"},
    // gcc: branchy compute mix over several working sets.
    {"spec06.gcc_like", "SPEC06",
     "corpus.mix:footprint_mb=48:cold_frac=0.04:alu=4:branch_frac=0.25:"
     "branch_bias=0.88:seed=105"},
    // cactusADM: stencil sweep with cross-row reuse.
    {"spec06.cactus_like", "SPEC06",
     "corpus.stencil:footprint_mb=64:row_kb=2048:stride=8:mlp=24:seed=106"},

    {"spec17.mcf_like", "SPEC17",
     "corpus.chase:footprint_mb=96:chains=3:alu=16:seed=201"},
    {"spec17.lbm_like", "SPEC17",
     "corpus.stream:footprint_mb=96:mlp=24:store_frac=0.3:seed=202"},
    // fotonik3d: streaming with large stride.
    {"spec17.fotonik_like", "SPEC17",
     "corpus.strided:footprint_mb=64:stride=20:mlp=8:alu=10:seed=203"},
    // pop2: stencil/ocean-model behaviour.
    {"spec17.pop2_like", "SPEC17",
     "corpus.stencil:footprint_mb=48:stride=16:mlp=16:seed=204"},
    // xalancbmk: hash/table driven with hot metadata.
    {"spec17.xalancbmk_like", "SPEC17",
     "corpus.probe:footprint_mb=32:hot_frac=0.85:alu=8:branch_frac=0.3:"
     "seed=205"},
    {"spec17.gcc_like", "SPEC17",
     "corpus.mix:footprint_mb=64:cold_frac=0.05:alu=4:branch_frac=0.25:"
     "seed=206"},

    // canneal: random element swaps over a big netlist.
    {"parsec.canneal_like", "PARSEC",
     "corpus.chase:footprint_mb=48:hit_frac=0.3:alu=16:seed=301"},
    // facesim: stencil with reuse.
    {"parsec.facesim_like", "PARSEC",
     "corpus.stencil:footprint_mb=64:stride=8:mlp=24:seed=302"},
    // streamcluster: distance computations = dense streaming.
    {"parsec.streamcluster_like", "PARSEC",
     "corpus.stream:footprint_mb=48:stride=4:mlp=48:alu=4:seed=303"},
    // raytrace: irregular structure walks with a hot BVH top.
    {"parsec.raytrace_like", "PARSEC",
     "corpus.probe:footprint_mb=48:hot_frac=0.6:warm_mb=4:mlp=12:alu=10:"
     "seed=304"},

    // Ligra: edge scans with community-local vertex gathers.
    {"ligra.bfs_like", "Ligra",
     "corpus.gather:footprint_mb=64:degree=6:hot_frac=0.94:alu=10:"
     "branch_frac=0.15:branch_bias=0.8:seed=401"},
    {"ligra.pagerank_like", "Ligra",
     "corpus.gather:footprint_mb=96:degree=12:hot_frac=0.94:alu=10:"
     "branch_frac=0.15:branch_bias=0.8:seed=402"},
    {"ligra.components_like", "Ligra",
     "corpus.gather:footprint_mb=64:hot_frac=0.94:alu=10:branch_frac=0.15:"
     "branch_bias=0.8:seed=403"},
    {"ligra.radii_like", "Ligra",
     "corpus.gather:footprint_mb=48:degree=10:hot_frac=0.94:alu=10:"
     "branch_frac=0.15:branch_bias=0.8:seed=404"},
    {"ligra.triangle_like", "Ligra",
     "corpus.gather:footprint_mb=64:degree=16:data_stride=32:hot_frac=0.94:"
     "alu=10:branch_frac=0.15:branch_bias=0.8:seed=405"},
    {"ligra.bc_like", "Ligra",
     "corpus.gather:footprint_mb=80:hot_frac=0.94:alu=10:branch_frac=0.15:"
     "branch_bias=0.8:seed=406"},

    // CVP: server and commercial traces.
    {"cvp.server_db_like", "CVP",
     "corpus.probe:footprint_mb=96:hot_frac=0.7:warm_mb=4:mlp=12:alu=10:"
     "branch_frac=0.2:branch_bias=0.75:seed=501"},
    {"cvp.server_int_like", "CVP",
     "corpus.probe:footprint_mb=48:hot_frac=0.8:mlp=12:alu=10:"
     "branch_frac=0.3:seed=502"},
    {"cvp.compute_int_like", "CVP",
     "corpus.mix:footprint_mb=32:cold_frac=0.06:seed=503"},
    {"cvp.compute_fp_like", "CVP",
     "corpus.strided:footprint_mb=64:stride=12:mlp=12:alu=8:seed=504"},
    {"cvp.crypto_like", "CVP",
     "corpus.mix:footprint_mb=24:cold_frac=0.07:alu=4:branch_frac=0.05:"
     "seed=505"},
    {"cvp.server_misc_like", "CVP",
     "corpus.gather:footprint_mb=48:degree=4:data_stride=128:hot_frac=0.75:"
     "mlp=0:alu=4:seed=506"},
};

std::vector<TraceSpec>
buildFullSuite()
{
    // The paper evaluates several SimPoint traces of each binary; every
    // row yields two: ".0" as spelled, then ".1" with a perturbed seed
    // and a 3/4-size footprint. All ".0" traces come first.
    std::vector<TraceSpec> suite;
    for (int variant = 0; variant < 2; ++variant)
        for (const SuiteRow &row : kRows) {
            TraceSpec t = makeCorpusTrace(row.spec);
            t.params.name = row.name + ("." + std::to_string(variant));
            t.params.category = row.category;
            if (variant == 1) {
                t.params.seed += 1009;
                t.params.footprintBytes = t.params.footprintBytes * 3 / 4;
            }
            suite.push_back(std::move(t));
        }
    validateUniqueTraceNames(suite);
    return suite;
}

std::vector<TraceSpec>
buildQuickSuite()
{
    static const char *names[] = {
        "spec06.mcf_like.0",    "spec06.lbm_like.0",
        "spec17.fotonik_like.0", "spec17.xalancbmk_like.0",
        "parsec.streamcluster_like.0", "parsec.canneal_like.0",
        "ligra.bfs_like.0",     "ligra.pagerank_like.0",
        "cvp.server_db_like.0", "cvp.compute_int_like.0",
    };
    std::vector<TraceSpec> out;
    for (const char *n : names)
        out.push_back(findTrace(n));
    return out;
}

} // namespace

const std::vector<TraceSpec> &
fullSuite()
{
    static const std::vector<TraceSpec> suite = buildFullSuite();
    return suite;
}

const std::vector<TraceSpec> &
quickSuite()
{
    static const std::vector<TraceSpec> suite = buildQuickSuite();
    return suite;
}

std::vector<std::string>
suiteCategories()
{
    return {"SPEC06", "SPEC17", "PARSEC", "Ligra", "CVP"};
}

TraceSpec
findTrace(const std::string &name)
{
    for (const auto &spec : fullSuite())
        if (spec.name() == name)
            return spec;
    throw std::out_of_range("unknown trace: " + name);
}

} // namespace hermes
