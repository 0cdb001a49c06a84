//===- lexer/ModalScanner.h - Lexer modes ----------------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mode-switching scanners, after ANTLR's lexer modes. Some token languages
/// are context-dependent at the lexical level — XML is the canonical case:
/// between tags, almost any character run is TEXT, while inside a tag the
/// same characters split into NAME / '=' / STRING tokens. A ModalScanner
/// owns one plain Scanner per mode plus a rule -> next-mode table; matching
/// a designated rule switches the active mode.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_LEXER_MODALSCANNER_H
#define COSTAR_LEXER_MODALSCANNER_H

#include "lexer/Scanner.h"

#include <memory>

namespace costar {
namespace lexer {

/// A set of lexer modes, each an ordered rule list like LexerSpec, plus
/// mode-switch annotations.
class ModalLexerSpec {
public:
  struct ModeRule {
    LexRule Rule;
    int32_t NextMode = -1; ///< -1 = stay in the current mode
  };
  struct Mode {
    std::string Name;
    std::vector<ModeRule> Rules;
  };

private:
  std::vector<Mode> Modes;

public:
  /// Adds a mode and returns its index. Mode 0 is the start mode.
  int32_t addMode(const std::string &Name) {
    Modes.push_back(Mode{Name, {}});
    return static_cast<int32_t>(Modes.size() - 1);
  }

  ModalLexerSpec &token(int32_t Mode, const std::string &Name,
                        const std::string &Pattern, int32_t NextMode = -1) {
    Modes[Mode].Rules.push_back(
        ModeRule{LexRule{Name, Pattern, false, false}, NextMode});
    return *this;
  }
  ModalLexerSpec &literal(int32_t Mode, const std::string &Text,
                          int32_t NextMode = -1) {
    Modes[Mode].Rules.push_back(
        ModeRule{LexRule{Text, Text, true, false}, NextMode});
    return *this;
  }
  ModalLexerSpec &skip(int32_t Mode, const std::string &Name,
                       const std::string &Pattern, int32_t NextMode = -1) {
    Modes[Mode].Rules.push_back(
        ModeRule{LexRule{Name, Pattern, false, true}, NextMode});
    return *this;
  }

  const std::vector<Mode> &modes() const { return Modes; }
};

/// A compiled mode-switching scanner bound to a Grammar's terminal ids.
class ModalScanner {
  std::vector<std::unique_ptr<Scanner>> Scanners;
  std::vector<std::vector<int32_t>> NextMode; // per mode, per rule
  std::string BuildError;

public:
  ModalScanner(const ModalLexerSpec &Spec, Grammar &G);

  bool ok() const { return BuildError.empty(); }
  const std::string &buildError() const { return BuildError; }

  /// Tokenizes \p Input starting in mode 0.
  LexResult scan(const std::string &Input) const;

  /// Requests \p B on every mode's scanner (see Scanner::setLexBackend).
  void setLexBackend(LexBackend B) {
    for (std::unique_ptr<Scanner> &S : Scanners)
      S->setLexBackend(B);
  }
};

} // namespace lexer
} // namespace costar

#endif // COSTAR_LEXER_MODALSCANNER_H
