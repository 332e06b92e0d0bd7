#include "verify/pressure.hh"

#include <sstream>

#include "verify/verifier.hh"

namespace fcdram::verify {

ActivationPressureProfile
analyzeActivationPressure(const pud::MicroProgram &program,
                          const pud::Placement &placement,
                          const Chip &chip, int redundancy,
                          bool rowCloneCopyIn,
                          const PressureBudget &budget,
                          DiagnosticSink &sink)
{
    ActivationPressureProfile profile;
    profile.redundancy = redundancy;

    // Per op, not per distinct slot: every op occurrence re-issues
    // its programs on every redundancy trial.
    const auto weight = static_cast<std::int64_t>(redundancy);
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        for (const OpProgram &issued :
             opPrograms(program, placement, i, chip, rowCloneCopyIn)) {
            for (const Command &command : issued.program.commands) {
                if (command.type != CommandType::Act)
                    continue;
                profile.rowActivations[{command.bank, command.row}] +=
                    weight;
                profile.totalActivations += weight;
            }
        }
    }

    for (const auto &[key, count] : profile.rowActivations) {
        if (count > profile.maxRowActivations) {
            profile.maxRowActivations = count;
            profile.hottestBank = key.first;
            profile.hottestRow = key.second;
        }
        if (count >
            static_cast<std::int64_t>(budget.maxRowActivations)) {
            std::ostringstream object;
            object << "bank " << static_cast<int>(key.first) << " row "
                   << key.second;
            std::ostringstream message;
            message << count << " activations in one plan execution "
                    << "(redundancy " << redundancy << ") exceed the "
                    << "disturbance budget of "
                    << budget.maxRowActivations;
            sink.report("UPL201", object.str(), message.str());
        }
    }
    return profile;
}

} // namespace fcdram::verify
