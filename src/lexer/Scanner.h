//===- lexer/Scanner.h - Maximal-munch scanner -----------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lexer front half of the evaluation pipeline: a rule-based scanner
/// compiled to a single minimized DFA. Rules are matched with maximal
/// munch; equal-length matches resolve to the earliest-declared rule
/// (so keyword rules declared before an identifier rule win). Skip rules
/// discard their matches (whitespace, comments). Token rules emit tokens
/// whose terminal ids come from the target Grammar, which makes scanner
/// output directly consumable by every parser in this repository.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_LEXER_SCANNER_H
#define COSTAR_LEXER_SCANNER_H

#include "grammar/Grammar.h"
#include "grammar/Token.h"
#include "lexer/Dfa.h"
#include "lexer/ScanTable.h"

#include <string>
#include <string_view>
#include <vector>

namespace costar {
namespace lexer {

/// One lexical rule: a named pattern, emitted or skipped.
struct LexRule {
  std::string Name;    ///< terminal name for emitted tokens
  std::string Pattern; ///< regex, or literal text when IsLiteral
  bool IsLiteral = false;
  bool Skip = false;
};

/// An ordered collection of lexical rules (order defines priority).
class LexerSpec {
  std::vector<LexRule> Rules;

public:
  /// Adds a regex token rule named \p Name.
  LexerSpec &token(const std::string &Name, const std::string &Pattern) {
    Rules.push_back(LexRule{Name, Pattern, false, false});
    return *this;
  }
  /// Adds a literal token rule; the terminal name is the literal text
  /// itself, matching the grammar DSL's quoted-literal convention.
  LexerSpec &literal(const std::string &Text) {
    Rules.push_back(LexRule{Text, Text, true, false});
    return *this;
  }
  /// Adds a skip rule (whitespace, comments).
  LexerSpec &skip(const std::string &Name, const std::string &Pattern) {
    Rules.push_back(LexRule{Name, Pattern, false, true});
    return *this;
  }

  const std::vector<LexRule> &rules() const { return Rules; }
};

/// Result of tokenizing an input.
struct LexResult {
  Word Tokens;
  std::string Error; ///< empty on success
  uint32_t ErrorLine = 0;
  uint32_t ErrorCol = 0;
  bool ok() const { return Error.empty(); }
};

/// A compiled scanner bound to a Grammar's terminal ids.
class Scanner {
  Dfa D;
  /// The flat equivalence-classed table compiled from D (lexer/ScanTable.h)
  /// backing the Swar match path; D itself stays the scalar baseline.
  ScanTable Table;
  /// Per rule: terminal id (for token rules) or UINT32_MAX (skip rules).
  std::vector<TerminalId> RuleTerminal;
  std::string BuildError;
  /// The matcher matchAt and munch run: Swar unless setLexBackend asked
  /// for ScalarPaperFaithful. Never Simd or Auto.
  LexBackend Backend = LexBackend::Swar;

  Scanner() = default;

public:
  /// Compiles \p Spec, interning each token rule's name in \p G. On a bad
  /// pattern, ok() is false and buildError() explains why.
  Scanner(const LexerSpec &Spec, Grammar &G);

  /// Rebuilds a scanner from its compiled form — the minimized DFA plus
  /// the per-rule terminal map — skipping the regex -> NFA -> DFA pipeline
  /// entirely. This is the snapshot load path (src/snapshot/): the
  /// snapshot stores exactly these two pieces, and the ScanTable is
  /// recompiled here because it is a pure function of the DFA (see
  /// serializeDfa). The caller is responsible for \p D being a DFA this
  /// constructor family could have produced; terminal ids in
  /// \p RuleTerminals must be valid for the grammar the scanner will feed
  /// (UINT32_MAX marks skip rules).
  static Scanner fromCompiled(Dfa D, std::vector<TerminalId> RuleTerminals);

  bool ok() const { return BuildError.empty(); }
  const std::string &buildError() const { return BuildError; }
  size_t numDfaStates() const { return D.numStates(); }
  const ScanTable &scanTable() const { return Table; }
  /// The compiled DFA — the serialization source of truth for snapshots.
  const Dfa &dfa() const { return D; }
  /// Per rule: emitted terminal id, or UINT32_MAX for skip rules.
  const std::vector<TerminalId> &ruleTerminals() const { return RuleTerminal; }

  /// The backend matchAt will actually run (post-resolution).
  LexBackend lexBackend() const { return Backend; }
  /// Requests \p B (see resolveLexBackend: Simd and Auto run Swar).
  void setLexBackend(LexBackend B) { Backend = resolveLexBackend(B); }

  /// One maximal-munch match attempt at \p Pos: the rule index and match
  /// length, or Rule == -1 on failure. Building block for scanInto and for
  /// the modal scanner.
  struct MatchResult {
    int32_t Rule = -1;
    size_t Length = 0;
  };
  MatchResult matchAt(const std::string &Input, size_t Pos) const;

  /// Bulk maximal munch over the whole of \p Input on the active backend:
  /// appends one TokenSpan per match (skip rules included — the caller
  /// decides what to emit) and returns the bytes consumed. Equivalent to
  /// a matchAt loop, but per-call setup, backend dispatch, and counter
  /// updates are paid once per buffer instead of once per token, which is
  /// the difference that matters when the median token is 1-3 bytes.
  size_t munch(std::string_view Input,
               std::vector<ScanTable::TokenSpan> &Out) const;

  /// Terminal id emitted by \p Rule, or UINT32_MAX for skip rules.
  TerminalId ruleTerminal(int32_t Rule) const {
    return RuleTerminal[static_cast<size_t>(Rule)];
  }

  /// Tokenizes \p Input with maximal munch.
  LexResult scan(const std::string &Input) const;

  /// Tokenizes \p Input and appends tokens to \p Out (shared path for the
  /// indentation pipeline, which scans line fragments).
  bool scanInto(const std::string &Input, uint32_t Line, uint32_t StartCol,
                Word &Out, LexResult &Err) const;

private:
  /// The scalar paper-faithful walk over Dfa::next — the baseline every
  /// batched path must stay bit-identical to. matchAt and munch's scalar
  /// case both run this.
  MatchResult scalarMatch(const char *Data, size_t Size, size_t Pos) const;
};

} // namespace lexer
} // namespace costar

#endif // COSTAR_LEXER_SCANNER_H
