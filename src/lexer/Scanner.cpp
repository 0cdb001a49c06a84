//===- lexer/Scanner.cpp - Maximal-munch scanner ------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lexer/Scanner.h"

#include "adt/Instrument.h"

#include <cstring>

using namespace costar;
using namespace costar::lexer;

Scanner::Scanner(const LexerSpec &Spec, Grammar &G) {
  Nfa N;
  int32_t RuleIndex = 0;
  for (const LexRule &Rule : Spec.rules()) {
    RegexPtr Re;
    if (Rule.IsLiteral) {
      Re = Regex::literalString(Rule.Pattern);
    } else {
      RegexParseResult Parsed = parseRegex(Rule.Pattern);
      if (!Parsed.ok()) {
        BuildError = "rule '" + Rule.Name + "': " + Parsed.Error;
        return;
      }
      Re = Parsed.Re;
    }
    N.addRule(*Re, RuleIndex++);
    RuleTerminal.push_back(Rule.Skip ? UINT32_MAX : G.internTerminal(Rule.Name));
  }
  D = Dfa::fromNfa(N).minimized();
  if (D.acceptRule(D.start()) != Dfa::NoRule) {
    const LexRule &Bad = Spec.rules()[D.acceptRule(D.start())];
    BuildError = "rule '" + Bad.Name + "' matches the empty string";
    return;
  }
  Table = ScanTable(D);
}

Scanner Scanner::fromCompiled(Dfa D, std::vector<TerminalId> RuleTerminals) {
  Scanner S;
  S.D = std::move(D);
  S.RuleTerminal = std::move(RuleTerminals);
  S.Table = ScanTable(S.D);
  return S;
}

Scanner::MatchResult Scanner::matchAt(const std::string &Input,
                                      size_t Pos) const {
  if (Backend == LexBackend::Swar) {
    ScanTable::Match M = Table.matchSwar(Input.data(), Input.size(), Pos);
    adt::TableCounters::lexSwarBytes() += M.Length;
    return MatchResult{M.Rule, M.Length};
  }
  MatchResult Best = scalarMatch(Input.data(), Input.size(), Pos);
  adt::TableCounters::lexScalarBytes() += Best.Length;
  return Best;
}

Scanner::MatchResult Scanner::scalarMatch(const char *Data, size_t Size,
                                          size_t Pos) const {
  // Maximal munch, scalar paper-faithful baseline: run the DFA byte by
  // byte as far as possible, remembering the last accepting position.
  MatchResult Best;
  int32_t Cur = static_cast<int32_t>(D.start());
  size_t I = Pos;
  while (I < Size) {
    Cur = D.next(static_cast<uint32_t>(Cur),
                 static_cast<unsigned char>(Data[I]));
    if (Cur == Dfa::DeadState)
      break;
    ++I;
    int32_t Rule = D.acceptRule(static_cast<uint32_t>(Cur));
    if (Rule != Dfa::NoRule) {
      Best.Rule = Rule;
      Best.Length = I - Pos;
    }
  }
  return Best;
}

size_t Scanner::munch(std::string_view Input,
                      std::vector<ScanTable::TokenSpan> &Out) const {
  if (Backend == LexBackend::Swar) {
    size_t Consumed = Table.munchSwar(Input.data(), Input.size(), Out);
    adt::TableCounters::lexSwarBytes() += Consumed;
    return Consumed;
  }
  // Scalar baseline: a per-token match loop, deliberately keeping the
  // paper-era one-call-per-token shape.
  size_t Pos = 0;
  while (Pos < Input.size()) {
    MatchResult M = scalarMatch(Input.data(), Input.size(), Pos);
    if (M.Rule < 0 || M.Length == 0)
      break;
    Out.push_back(ScanTable::TokenSpan{M.Rule, static_cast<uint32_t>(M.Length)});
    Pos += M.Length;
  }
  adt::TableCounters::lexScalarBytes() += Pos;
  return Pos;
}

bool Scanner::scanInto(const std::string &Input, uint32_t Line,
                       uint32_t StartCol, Word &Out, LexResult &Err) const {
  assert(ok() && "scanning with a scanner that failed to build");
  // Tokenize the whole fragment in one bulk pass, then walk the spans to
  // build tokens and track positions. The scratch vector is reused across
  // calls — the indentation pipeline scans one fragment per line.
  thread_local std::vector<ScanTable::TokenSpan> Spans;
  Spans.clear();
  size_t Consumed = munch(Input, Spans);
  uint32_t Col = StartCol;
  size_t Pos = 0;
  for (const ScanTable::TokenSpan &Sp : Spans) {
    size_t LastLen = Sp.Length;
    TerminalId T = RuleTerminal[static_cast<size_t>(Sp.Rule)];
    if (T != UINT32_MAX)
      Out.emplace_back(T, Input.substr(Pos, LastLen), Line, Col);
    // Advance Line/Col across the matched bytes: memchr finds the
    // newlines, so the common no-newline token costs one library scan
    // instead of a per-byte loop.
    const char *Seg = Input.data() + Pos;
    const char *SegEnd = Seg + LastLen;
    size_t Newlines = 0;
    const char *LastNl = nullptr;
    for (const char *P = Seg;
         (P = static_cast<const char *>(
              std::memchr(P, '\n', static_cast<size_t>(SegEnd - P))));
         ++P) {
      ++Newlines;
      LastNl = P;
    }
    if (Newlines == 0) {
      Col += static_cast<uint32_t>(LastLen);
    } else {
      Line += static_cast<uint32_t>(Newlines);
      Col = static_cast<uint32_t>(SegEnd - LastNl);
    }
    Pos += LastLen;
  }
  if (Consumed < Input.size()) {
    Err.Error =
        std::string("unexpected character '") + Input[Consumed] + "'";
    Err.ErrorLine = Line;
    Err.ErrorCol = Col;
    return false;
  }
  return true;
}

LexResult Scanner::scan(const std::string &Input) const {
  LexResult Result;
  if (!ok()) {
    Result.Error = BuildError;
    return Result;
  }
  scanInto(Input, 1, 1, Result.Tokens, Result);
  return Result;
}
