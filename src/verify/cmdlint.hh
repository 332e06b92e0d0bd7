/**
 * @file
 * Command-program lint over bender::Program: the DDR4-level half of
 * the static verifier.
 *
 * Structural rules:
 *
 *  - UPL101 monotonicity: issue timestamps must never go backwards;
 *  - UPL102 ACT on a bank that still has a row open (real double-ACT
 *    without an intervening PRE — distinct from the intentional
 *    ACT-PRE-ACT violation sequence);
 *  - UPL103 RD/WR on a precharged bank (no row to read or write);
 *  - UPL104 redundant PRE on an already-precharged bank.
 *
 * Timing rules, via bender/timingcheck classification of every
 * ACT->PRE and PRE->ACT gap on a bank:
 *
 *  - UPL105: an Interrupted restore or a Glitch/Short precharge gap
 *    is only legitimate inside an intentionally-violated epoch (the
 *    DramLabel labels: "MAJ", "NOT", "RowClone", "Frac", "Logic");
 *    anywhere else it is an error — a scheduler that accidentally
 *    packs commands that tight would corrupt rows;
 *  - UPL106: a grossly violated gap on a design whose decoder ignores
 *    violated commands (Micron behaviour) — the command would be
 *    silently dropped, so the program cannot mean what it says;
 *  - UPL107 (Note): a count of the intentionally violated gaps found
 *    inside a labeled epoch, so reports show where timing violations
 *    were deliberate.
 */

#ifndef FCDRAM_VERIFY_CMDLINT_HH
#define FCDRAM_VERIFY_CMDLINT_HH

#include <string>

#include "bender/program.hh"
#include "config/timing.hh"
#include "verify/diagnostics.hh"

namespace fcdram::verify {

/**
 * True for the DramLabel epochs fcdram/ops issues its
 * violated-timing programs under ("MAJ", "NOT", "RowClone", "Frac",
 * "Logic"); false for e.g. "RowRead" or the default "program".
 */
bool isViolationEpoch(const char *epoch);

/** Context one command program is linted under. */
struct CommandLintContext
{
    /** Timing the gap classification runs against. */
    TimingParams timing = TimingParams::nominal();

    /** DramLabel-style epoch the program executes under. */
    const char *epoch = "program";

    /** Target design drops grossly violated commands (Micron). */
    bool ignoresViolatedCommands = false;

    /** Diagnostic locus prefix, e.g. "op 4 gate slot 0". */
    std::string locus;
};

/** Lint one command program; diagnostics append to @p sink. */
void lintCommandProgram(const Program &program,
                        const CommandLintContext &context,
                        DiagnosticSink &sink);

} // namespace fcdram::verify

#endif // FCDRAM_VERIFY_CMDLINT_HH
