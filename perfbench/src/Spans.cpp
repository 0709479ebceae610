//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark-side span recorder: host-time spans around the calls
/// the benchmark makes into the program, kept in memory and written out
/// when the run ends.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>

namespace perfbench {

std::size_t SpanRecorder::open(const char *Name, std::uint64_t Request) {
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = Stack.empty() ? -1 : static_cast<std::int32_t>(Stack.back());
  S.BeginNs = nowNs();
  Spans.push_back(S);
  Stack.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void SpanRecorder::close(std::size_t Index) {
  Spans[Index].EndNs = nowNs();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

std::map<std::string, SpanRecorder::Aggregate>
SpanRecorder::aggregate() const {
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[static_cast<std::size_t>(S.Parent)] +=
          static_cast<double>(S.EndNs - S.BeginNs) * 1e-3;
  std::map<std::string, Aggregate> Out;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const double DurUs =
        static_cast<double>(Spans[I].EndNs - Spans[I].BeginNs) * 1e-3;
    Aggregate &A = Out[Spans[I].Name];
    ++A.Count;
    A.TotalUs += DurUs;
    A.SelfUs += DurUs - ChildUs[I];
  }
  return Out;
}

bool SpanRecorder::writeJsonLines(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  for (const Span &S : Spans)
    std::fprintf(File,
                 "{\"name\":\"%s\",\"begin_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 S.Name, static_cast<unsigned long long>(S.BeginNs),
                 static_cast<unsigned long long>(S.EndNs), S.Parent,
                 static_cast<unsigned long long>(S.Request));
  return std::fclose(File) == 0;
}

} // namespace perfbench
