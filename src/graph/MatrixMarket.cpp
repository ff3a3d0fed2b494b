//===- MatrixMarket.cpp - Matrix Market (.mtx) reader/writer ---------------===//

#include "graph/MatrixMarket.h"

#include "support/Str.h"
#include "tensor/CooMatrix.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

using namespace granii;

namespace {

/// Sets \p ErrorMessage (if non-null) to "line <Line>: <Msg>" and returns
/// std::nullopt.
std::optional<Graph> fail(std::string *ErrorMessage, int64_t Line,
                          const std::string &Msg) {
  if (ErrorMessage)
    *ErrorMessage = "line " + std::to_string(Line) + ": " + Msg;
  return std::nullopt;
}

/// Whitespace inside a line: space, or '\t' through '\r' other than '\n'
/// (the '\r' of CRLF line endings included).
bool isBlank(char C) {
  return C == ' ' || (C >= '\t' && C <= '\r' && C != '\n');
}

/// A cursor over the whole input that touches each byte once. It reads
/// fields off the current line and moves to the next line only through
/// nextLine(), counting lines so every rejection can name its own.
class Cursor {
public:
  explicit Cursor(std::string_view Text)
      : Pos(Text.data()), End(Text.data() + Text.size()), LineStart(Pos) {}

  bool atEnd() const { return Pos == End; }
  /// 1-based line the cursor is on; at the end of the input, the line the
  /// input ends on (past the last line if that ended with '\n').
  int64_t line() const { return Line; }
  size_t remainingBytes() const { return static_cast<size_t>(End - Pos); }

  /// Skips blanks; true if the current line has no further field.
  bool lineDone() {
    while (Pos != End && isBlank(*Pos))
      ++Pos;
    return Pos == End || *Pos == '\n';
  }
  /// The next character of the line, after lineDone() returned false.
  char peek() const { return *Pos; }

  /// Moves past the current line's '\n', ignoring what is left of it.
  void nextLine() {
    // Entry lines usually end right after their last field.
    const auto *Newline =
        Pos != End && *Pos == '\n'
            ? Pos
            : static_cast<const char *>(
                  std::memchr(Pos, '\n', static_cast<size_t>(End - Pos)));
    if (!Newline) {
      Pos = End;
      return;
    }
    Pos = LineStart = Newline + 1;
    ++Line;
  }

  /// The next whitespace-delimited field of the line; empty if none.
  std::string_view field() {
    lineDone();
    const char *Begin = Pos;
    while (Pos != End && *Pos != '\n' && !isBlank(*Pos))
      ++Pos;
    return {Begin, static_cast<size_t>(Pos - Begin)};
  }

  /// Reads the next field as a base-10 integer. Accepts exactly what
  /// parseInt64 accepts of the field, but lets std::from_chars find the
  /// field's end instead of scanning it twice.
  bool integer(int64_t &Out) {
    lineDone();
    auto [Ptr, Ec] = std::from_chars(Pos, End, Out);
    if (Ec != std::errc() || (Ptr != End && *Ptr != '\n' && !isBlank(*Ptr)))
      return false;
    Pos = Ptr;
    return true;
  }

  /// The current line, trimmed, for error messages.
  std::string lineText() const {
    const auto *Newline = static_cast<const char *>(std::memchr(
        LineStart, '\n', static_cast<size_t>(End - LineStart)));
    const char *Stop = Newline ? Newline : End;
    return std::string(trimString(
        std::string_view(LineStart, static_cast<size_t>(Stop - LineStart))));
  }

private:
  const char *Pos;
  const char *End;
  const char *LineStart;
  int64_t Line = 1;
};

} // namespace

std::optional<Graph> granii::parseMatrixMarket(std::string_view Text,
                                               const std::string &Name,
                                               std::string *ErrorMessage) {
  Cursor In(Text);
  if (In.atEnd())
    return fail(ErrorMessage, 1, "empty matrix market input");

  // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
  std::string_view Banner = In.field();
  std::string_view Object = In.field();
  std::string_view Format = In.field();
  std::string_view Field = In.field();
  std::string_view Symmetry = In.field();
  if (Banner != "%%MatrixMarket" || Object != "matrix" ||
      Format != "coordinate" || Symmetry.empty())
    return fail(ErrorMessage, 1,
                "unsupported matrix market header (need coordinate format)");
  if (Field != "pattern" && Field != "real" && Field != "integer")
    return fail(ErrorMessage, 1,
                "unsupported matrix market field: " + std::string(Field));
  if (Symmetry != "general" && Symmetry != "symmetric")
    return fail(ErrorMessage, 1,
                "unsupported matrix market symmetry: " +
                    std::string(Symmetry));
  const bool HasValues = Field != "pattern";
  const bool Symmetric = Symmetry == "symmetric";
  In.nextLine();

  // Skip comment and blank lines, read the size line.
  int64_t Rows = 0, Cols = 0, Entries = 0;
  for (;; In.nextLine()) {
    if (In.atEnd())
      return fail(ErrorMessage, In.line(), "missing matrix market size line");
    if (In.lineDone() || In.peek() == '%')
      continue;
    if (!In.integer(Rows) || !In.integer(Cols) || !In.integer(Entries) ||
        !In.lineDone())
      return fail(ErrorMessage, In.line(),
                  "malformed matrix market size line");
    break;
  }
  if (Rows <= 0 || Cols <= 0 || Rows != Cols)
    return fail(ErrorMessage, In.line(),
                "graph adjacency must be square and non-empty");
  // Checked before anything is sized from the declared counts. Node ids
  // are int32 downstream, and a graph file spends at least a byte per
  // node unless most of its nodes are isolated: the per-byte budget keeps
  // a few bytes from declaring gigabytes of row offsets and degrees.
  const int64_t MaxNodes =
      std::min<int64_t>(std::numeric_limits<int32_t>::max(),
                        static_cast<int64_t>(Text.size()));
  if (Rows > MaxNodes)
    return fail(ErrorMessage, In.line(),
                "matrix market size " + std::to_string(Rows) +
                    " exceeds the node limit " + std::to_string(MaxNodes) +
                    " (one node per input byte, at most 2147483647)");
  if (Entries < 0)
    return fail(ErrorMessage, In.line(), "negative matrix market entry count");
  In.nextLine();

  CooMatrix Coo(Rows, Cols);
  // The declared count is untrusted: reserve for no more entry lines than
  // the rest of the buffer can hold (a line takes at least 4 bytes,
  // "1 1\n"); a symmetric line stores up to two entries.
  const int64_t Lines =
      std::min(Entries, static_cast<int64_t>(In.remainingBytes() / 4 + 1));
  Coo.reserve(Symmetric ? 2 * Lines : Lines);
  for (int64_t Seen = 0; Seen < Entries; In.nextLine()) {
    if (In.atEnd())
      return fail(ErrorMessage, In.line(),
                  "matrix market entry count mismatch: declared " +
                      std::to_string(Entries) + ", read " +
                      std::to_string(Seen));
    if (In.lineDone() || In.peek() == '%')
      continue;
    int64_t R = 0, C = 0;
    double V = 1.0;
    bool Ok = In.integer(R) && In.integer(C);
    if (Ok && HasValues && !In.lineDone())
      Ok = parseDouble(In.field(), V);
    if (!Ok)
      return fail(ErrorMessage, In.line(),
                  "malformed matrix market entry: " + In.lineText());
    if (R < 1 || R > Rows || C < 1 || C > Cols)
      return fail(ErrorMessage, In.line(),
                  "matrix market entry out of bounds: " + In.lineText());
    // Matrix Market is 1-based.
    if (Symmetric)
      Coo.addSymmetric(R - 1, C - 1, static_cast<float>(V));
    else
      Coo.add(R - 1, C - 1, static_cast<float>(V));
    ++Seen;
  }
  return Graph(Name, Coo.toCsr(/*Unweighted=*/!HasValues));
}

std::optional<Graph> granii::readMatrixMarket(const std::string &Path,
                                              std::string *ErrorMessage) {
  auto Fail = [&](const std::string &Msg) -> std::optional<Graph> {
    if (ErrorMessage)
      *ErrorMessage = Msg;
    return std::nullopt;
  };
  // Sized up front so the whole file arrives in one read. Only regular
  // files have a meaningful size (a directory's or a pipe's is not).
  std::error_code Ec;
  if (!std::filesystem::is_regular_file(Path, Ec))
    return Fail("cannot open file: " + Path);
  const std::uintmax_t Size = std::filesystem::file_size(Path, Ec);
  std::ifstream In(Path, std::ios::binary);
  if (Ec || !In)
    return Fail("cannot open file: " + Path);
  // Left uninitialized: the read fills every byte.
  std::unique_ptr<char[]> Buffer(new char[static_cast<size_t>(Size)]);
  if (!In.read(Buffer.get(), static_cast<std::streamsize>(Size)))
    return Fail("cannot read file: " + Path);
  // Derive the graph name from the file name without extension.
  std::string Name = Path;
  if (size_t Slash = Name.find_last_of('/'); Slash != std::string::npos)
    Name = Name.substr(Slash + 1);
  if (size_t Dot = Name.find_last_of('.'); Dot != std::string::npos)
    Name = Name.substr(0, Dot);
  return parseMatrixMarket(
      std::string_view(Buffer.get(), static_cast<size_t>(Size)), Name,
      ErrorMessage);
}

bool granii::writeMatrixMarket(const Graph &G, const std::string &Path,
                               std::string *ErrorMessage) {
  std::ofstream Out(Path);
  if (!Out) {
    if (ErrorMessage)
      *ErrorMessage = "cannot open file for writing: " + Path;
    return false;
  }
  const CsrMatrix &Adj = G.adjacency();
  // Emit only the lower triangle; format is symmetric.
  int64_t LowerCount = 0;
  const auto &Offsets = Adj.rowOffsets();
  const auto &Cols = Adj.colIndices();
  for (int64_t R = 0; R < Adj.rows(); ++R)
    for (int64_t K = Offsets[static_cast<size_t>(R)];
         K < Offsets[static_cast<size_t>(R) + 1]; ++K)
      if (Cols[static_cast<size_t>(K)] <= R)
        ++LowerCount;

  Out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
  Out << "% graph: " << G.name() << "\n";
  Out << Adj.rows() << " " << Adj.cols() << " " << LowerCount << "\n";
  for (int64_t R = 0; R < Adj.rows(); ++R)
    for (int64_t K = Offsets[static_cast<size_t>(R)];
         K < Offsets[static_cast<size_t>(R) + 1]; ++K)
      if (Cols[static_cast<size_t>(K)] <= R)
        Out << (R + 1) << " " << (Cols[static_cast<size_t>(K)] + 1) << "\n";
  return static_cast<bool>(Out);
}
