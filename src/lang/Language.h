//===- lang/Language.h - Benchmark language definitions --------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four benchmark languages of the paper's evaluation (Section 6.1):
/// JSON, XML, DOT, and Python 3 (here, a substantial Python subset). Each
/// Language bundles a desugared BNF grammar (loaded from grammar-DSL text,
/// mirroring the paper's ANTLR-grammar conversion tool) with a matching
/// lexer: a plain scanner for JSON and DOT, a modal scanner for XML (tag
/// vs. content context), and an indentation pipeline for Python.
///
/// Every parser in this repository consumes the same Grammar and token ids,
/// so one Language serves CoStar, the ATN baseline, and the LL(1) baseline
/// alike.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_LANG_LANGUAGE_H
#define COSTAR_LANG_LANGUAGE_H

#include "gdsl/GrammarDsl.h"
#include "lexer/Indenter.h"
#include "lexer/ModalScanner.h"
#include "lexer/Scanner.h"

#include <memory>
#include <string>

namespace costar {
namespace lang {

/// Which benchmark language (Figure 8 row, plus zoo additions: Verilog
/// joined in PR 9 as the costar-verilint surface grammar).
enum class LangId { Json, Xml, Dot, Python, Verilog };

/// A fully wired benchmark language: grammar + lexer.
struct Language {
  std::string Name;
  Grammar G;
  NonterminalId Start = 0;
  uint32_t SynthesizedNonterminals = 0;

  // Exactly one of the following lexer stacks is populated.
  std::unique_ptr<lexer::Scanner> Plain;
  std::unique_ptr<lexer::ModalScanner> Modal;
  std::unique_ptr<lexer::Scanner> IndentInner;
  std::unique_ptr<lexer::IndentingScanner> Indent;

  /// Tokenizes \p Src with this language's lexer.
  lexer::LexResult lex(const std::string &Src) const {
    if (Plain)
      return Plain->scan(Src);
    if (Modal)
      return Modal->scan(Src);
    assert(Indent && "language has no lexer");
    return Indent->scan(Src);
  }

  /// Requests lexer backend \p B on whichever scanner stack is populated
  /// (the indenting stack through its inner scanner).
  void setLexBackend(lexer::LexBackend B) {
    if (Plain)
      Plain->setLexBackend(B);
    if (Modal)
      Modal->setLexBackend(B);
    if (IndentInner)
      IndentInner->setLexBackend(B);
  }
};

/// Builds one benchmark language. Aborts (assert) on internal definition
/// errors; the definitions are fixed at compile time and covered by tests.
Language makeLanguage(LangId Id);

/// All benchmark languages: the four Figure 8 rows in paper order, then
/// grammar-zoo additions (Verilog).
std::vector<LangId> allLanguages();

/// Display name without building the language.
const char *langName(LangId Id);

/// The grammar-DSL source text of a benchmark language, for tools (like
/// costar-analyze) that want to re-load it with source spans attached.
const char *grammarText(LangId Id);

} // namespace lang
} // namespace costar

#endif // COSTAR_LANG_LANGUAGE_H
