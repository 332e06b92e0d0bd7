#include "verify/cmdlint.hh"

#include <cstring>
#include <map>
#include <sstream>

#include "bender/timingcheck.hh"

namespace fcdram::verify {

bool
isViolationEpoch(const char *epoch)
{
    static const char *const kEpochs[] = {"MAJ", "NOT", "RowClone",
                                          "Frac", "Logic"};
    for (const char *candidate : kEpochs) {
        if (std::strcmp(epoch, candidate) == 0)
            return true;
    }
    return false;
}

namespace {

/** Per-bank ACT/PRE pairing state while scanning a program. */
struct BankState
{
    bool open = false;
    RowId openRow = 0;
    bool sawAct = false;
    bool sawPre = false;
    Ns lastActNs = 0.0;
    Ns lastPreNs = 0.0;
};

std::string
commandLocus(const CommandLintContext &context, std::size_t index,
             const Command &command)
{
    std::ostringstream os;
    if (!context.locus.empty())
        os << context.locus << " ";
    os << "cmd " << index << " (" << command.toString() << ")";
    return os.str();
}

} // namespace

void
lintCommandProgram(const Program &program,
                   const CommandLintContext &context,
                   DiagnosticSink &sink)
{
    const bool violationEpoch = isViolationEpoch(context.epoch);
    std::map<BankId, BankState> banks;
    Ns previousNs = 0.0;
    std::size_t intentionalGaps = 0;

    // A violated gap is legitimate only inside a labeled epoch; the
    // same classification that the simulated decoder/analog model
    // applies at execution decides what counts as violated here.
    const auto violatedGap = [&](std::size_t index,
                                 const Command &command,
                                 const char *what, Ns gapNs) {
        if (violationEpoch) {
            ++intentionalGaps;
            return;
        }
        std::ostringstream message;
        message << what << " gap of " << gapNs
                << "ns violates timing outside an "
                   "intentionally-violated epoch (label '"
                << context.epoch << "')";
        sink.report("UPL105", commandLocus(context, index, command),
                    message.str());
    };
    const auto droppedGap = [&](std::size_t index,
                                const Command &command,
                                const char *what, Ns gapNs,
                                Ns nominalNs) {
        if (!context.ignoresViolatedCommands ||
            !grosslyViolated(gapNs, nominalNs))
            return;
        std::ostringstream message;
        message << what << " gap of " << gapNs
                << "ns is grossly violated (nominal " << nominalNs
                << "ns): this design's decoder drops the command";
        sink.report("UPL106", commandLocus(context, index, command),
                    message.str());
    };

    for (std::size_t i = 0; i < program.commands.size(); ++i) {
        const Command &command = program.commands[i];
        if (i > 0 && command.issueNs < previousNs) {
            std::ostringstream message;
            message << "issue time goes backwards (previous command "
                       "at "
                    << previousNs << "ns)";
            sink.report("UPL101", commandLocus(context, i, command),
                        message.str());
        }
        previousNs = std::max(previousNs, command.issueNs);

        BankState &bank = banks[command.bank];
        switch (command.type) {
          case CommandType::Act: {
            if (bank.open) {
                std::ostringstream message;
                message << "bank " << static_cast<int>(command.bank)
                        << " still has row r" << bank.openRow
                        << " open (no PRE since its ACT)";
                sink.report("UPL102",
                            commandLocus(context, i, command),
                            message.str());
            }
            if (bank.sawPre) {
                const Ns gap = command.issueNs - bank.lastPreNs;
                if (classifyPrecharge(context.timing, gap) !=
                    PrechargeClass::Complete)
                    violatedGap(i, command, "PRE->ACT", gap);
                droppedGap(i, command, "PRE->ACT", gap,
                           context.timing.tRp);
            }
            bank.open = true;
            bank.openRow = command.row;
            bank.sawAct = true;
            bank.lastActNs = command.issueNs;
            break;
          }
          case CommandType::Pre: {
            if (!bank.open) {
                sink.report(
                    "UPL104", commandLocus(context, i, command),
                    "bank is already precharged (PRE pairs with no "
                    "open row)");
            } else {
                const Ns gap = command.issueNs - bank.lastActNs;
                if (classifyRestore(context.timing, gap) ==
                    RestoreClass::Interrupted)
                    violatedGap(i, command, "ACT->PRE", gap);
                droppedGap(i, command, "ACT->PRE", gap,
                           context.timing.tRas);
            }
            bank.open = false;
            bank.sawPre = true;
            bank.lastPreNs = command.issueNs;
            break;
          }
          case CommandType::Rd:
          case CommandType::Wr: {
            if (!bank.open) {
                std::ostringstream message;
                message << (command.type == CommandType::Rd ? "RD"
                                                            : "WR")
                        << " targets bank "
                        << static_cast<int>(command.bank)
                        << " with no open row";
                sink.report("UPL103",
                            commandLocus(context, i, command),
                            message.str());
            }
            break;
          }
          case CommandType::Ref:
          case CommandType::Nop:
            break;
        }
    }

    if (intentionalGaps > 0) {
        std::ostringstream message;
        message << intentionalGaps
                << " intentionally violated timing gap(s) under "
                   "epoch '"
                << context.epoch << "'";
        sink.report("UPL107",
                    context.locus.empty() ? "program" : context.locus,
                    message.str());
    }
}

} // namespace fcdram::verify
