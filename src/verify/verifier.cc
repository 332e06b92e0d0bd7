#include "verify/verifier.hh"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "fcdram/ops.hh"

namespace fcdram::verify {

namespace {

using pud::GateSlot;
using pud::MajSlot;
using pud::MicroOp;
using pud::MicroOpKind;
using pud::MicroProgram;
using pud::NotSlot;
using pud::Placement;

/**
 * Index of the slot op @p i runs on, in the slot list of its kind;
 * -1 for Load ops, unplaced ops, out-of-range slots and envelopes
 * that do not cover every op (UPL010's job).
 */
int
slotOf(const MicroProgram &program, const Placement &placement,
       std::size_t i)
{
    const std::size_t n = program.ops.size();
    if (i >= n || placement.gateSlotOf.size() != n ||
        placement.notSlotOf.size() != n ||
        placement.majSlotOf.size() != n)
        return -1;
    const auto inRange = [](int slot, std::size_t count) {
        return slot >= 0 && static_cast<std::size_t>(slot) < count
                   ? slot
                   : -1;
    };
    switch (program.ops[i].kind) {
      case MicroOpKind::Wide:
        return inRange(placement.gateSlotOf[i],
                       placement.gateSlots.size());
      case MicroOpKind::Maj:
        return inRange(placement.majSlotOf[i],
                       placement.majSlots.size());
      case MicroOpKind::Not:
        return inRange(placement.notSlotOf[i],
                       placement.notSlots.size());
      case MicroOpKind::Load:
        break;
    }
    return -1;
}

} // namespace

std::vector<OpProgram>
opPrograms(const MicroProgram &program, const Placement &placement,
           std::size_t i, const Chip &chip, bool rowCloneCopyIn)
{
    std::vector<OpProgram> out;
    const int slot = slotOf(program, placement, i);
    if (slot < 0)
        return out;
    const MicroOp &op = program.ops[i];
    const SpeedGrade &speed = chip.profile().speed;
    // Ops::fracInit; false where the engine falls back to the CPU.
    const auto frac = [&](BankId bank, RowId target,
                          const std::vector<RowId> &avoid) {
        const RowId helper = fracHelper(chip, target, avoid);
        if (helper == kInvalidRow)
            return false;
        out.push_back(
            {"Frac", fracProgram(speed, bank, helper, target)});
        return true;
    };
    switch (op.kind) {
      case MicroOpKind::Wide: {
        const GateSlot &gate = placement.gateSlots[slot];
        const BankId bank = gate.context.bank;
        if (!gate.refRows.empty() &&
            !frac(bank, gate.refRows.back(), gate.refRows))
            return out;
        out.push_back({"Logic", doubleActProgram(speed, bank,
                                                 gate.refAnchor,
                                                 gate.comAnchor)});
        if (!rowCloneCopyIn)
            return out;
        const std::size_t staged = std::min(gate.stagingRows.size(),
                                            gate.computeRows.size());
        for (std::size_t k = 0; k < staged; ++k) {
            if (gate.stagingRows[k] == kInvalidRow)
                continue;
            out.push_back({"RowClone",
                           copyProgram(speed, bank, gate.stagingRows[k],
                                       gate.computeRows[k])});
        }
        return out;
      }
      case MicroOpKind::Maj: {
        const MajSlot &maj = placement.majSlots[slot];
        const BankId bank = maj.context.bank;
        const int size = static_cast<int>(maj.rows.size());
        for (int n = 0; n < op.neutralRows && n < size; ++n) {
            if (!frac(bank, maj.rows[size - 1 - n], maj.rows))
                return out;
        }
        out.push_back({"MAJ", doubleActProgram(speed, bank,
                                               maj.rfAnchor,
                                               maj.rlAnchor)});
        return out;
      }
      case MicroOpKind::Not: {
        const NotSlot &inverter = placement.notSlots[slot];
        out.push_back({"NOT", copyProgram(speed, inverter.context.bank,
                                          inverter.srcRow,
                                          inverter.dstRow)});
        return out;
      }
      case MicroOpKind::Load:
        break;
    }
    return out;
}

DiagnosticSink
verifyPlan(const MicroProgram &program, const Placement &placement,
           const Chip &chip, Celsius maskTemperature,
           Celsius executeTemperature, bool rowCloneCopyIn)
{
    DiagnosticSink sink;
    lintMicroProgram(program, sink);
    lintPlacement(program, placement, chip, sink);

    if (maskTemperature != executeTemperature) {
        std::ostringstream message;
        message << "reliability masks derived at " << maskTemperature
                << "C, plan executes at " << executeTemperature
                << "C (stale masks must be re-derived)";
        sink.report("UPL009", "plan", message.str());
    }

    // Command-level lint of what each placed slot issues. Slots are
    // reused across the ops of one program and a slot's programs
    // depend only on its rows, so each distinct slot is linted once.
    std::set<std::pair<MicroOpKind, int>> linted;
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const int slot = slotOf(program, placement, i);
        if (slot < 0 || !linted.emplace(program.ops[i].kind, slot).second)
            continue;
        for (const OpProgram &issued :
             opPrograms(program, placement, i, chip, rowCloneCopyIn)) {
            CommandLintContext context;
            context.epoch = issued.epoch;
            context.ignoresViolatedCommands =
                chip.profile().decoder.ignoresViolatedCommands;
            std::ostringstream locus;
            locus << "op " << i << " " << issued.epoch;
            context.locus = locus.str();
            lintCommandProgram(issued.program, context, sink);
        }
    }
    return sink;
}

DiagnosticSink
verifyPlan(const MicroProgram &program, const Placement &placement,
           const Chip &chip, Celsius maskTemperature)
{
    return verifyPlan(program, placement, chip, maskTemperature,
                      chip.temperature());
}

std::string
summarizeVerdict(const DiagnosticSink &report)
{
    std::ostringstream out;
    out << report.errors() << " error(s), " << report.warnings()
        << " warning(s), " << report.notes() << " note(s)";
    std::size_t shown = 0;
    for (const Diagnostic &diagnostic : report.diagnostics()) {
        if (diagnostic.severity != Severity::Error)
            continue;
        out << (shown == 0 ? "; top: " : "; ")
            << diagnostic.toString();
        if (++shown == 3)
            break;
    }
    if (shown < 3) {
        for (const Diagnostic &diagnostic : report.diagnostics()) {
            if (diagnostic.severity == Severity::Error)
                continue;
            out << (shown == 0 ? "; top: " : "; ")
                << diagnostic.toString();
            if (++shown == 3)
                break;
        }
    }
    return out.str();
}

} // namespace fcdram::verify
