//===- perfbench/src/Spans.cpp --------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

using namespace perfbench;

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> OpenSpans;

unsigned threadIndex() {
  static std::atomic<unsigned> Next{1};
  thread_local unsigned Mine = Next.fetch_add(1);
  return Mine;
}

} // namespace

SpanLog::SpanLog() : Origin(Clock::now()) {}

int64_t SpanLog::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

SpanLog::Scope::Scope(SpanLog *Log, const char *Name, uint64_t Id, bool Dup)
    : Log(Log) {
  if (!Log)
    return;
  Span S;
  S.Name = Name;
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  S.Tid = threadIndex();
  S.Id = Id;
  S.Dup = Dup;
  {
    std::lock_guard<std::mutex> Lock(Log->Mu);
    Index = static_cast<int64_t>(Log->Spans.size());
    S.StartNs = Log->nowNs();
    Log->Spans.push_back(S);
  }
  OpenSpans.push_back(Index);
}

SpanLog::Scope::~Scope() {
  if (!Log)
    return;
  OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Log->Mu);
  Log->Spans[static_cast<size_t>(Index)].EndNs = Log->nowNs();
}

void SpanLog::Scope::note(const char *Note) {
  if (!Log)
    return;
  std::lock_guard<std::mutex> Lock(Log->Mu);
  Log->Spans[static_cast<size_t>(Index)].Note = Note;
}

void SpanLog::start() {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.clear();
  Origin = Clock::now();
}

void SpanLog::finish() { EndNs = nowNs(); }

namespace {

using Intervals = std::vector<std::pair<int64_t, int64_t>>;

/// Sorts and merges overlapping intervals.
Intervals merged(Intervals V) {
  std::sort(V.begin(), V.end());
  Intervals Out;
  for (const auto &I : V) {
    if (!Out.empty() && I.first <= Out.back().second)
      Out.back().second = std::max(Out.back().second, I.second);
    else
      Out.push_back(I);
  }
  return Out;
}

int64_t length(const Intervals &V) {
  int64_t N = 0;
  for (const auto &[Start, End] : V)
    N += End - Start;
  return N;
}

/// Length of the intersection of two merged interval lists.
int64_t overlap(const Intervals &A, const Intervals &B) {
  int64_t N = 0;
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    int64_t Lo = std::max(A[I].first, B[J].first);
    int64_t Hi = std::min(A[I].second, B[J].second);
    if (Lo < Hi)
      N += Hi - Lo;
    (A[I].second < B[J].second ? I : J)++;
  }
  return N;
}

} // namespace

/// Top-level spans, duplicates or not, as merged intervals.
static Intervals topLevel(const std::vector<SpanLog::Span> &Spans, bool Dup) {
  Intervals V;
  for (const SpanLog::Span &S : Spans)
    if (S.Parent < 0 && S.Dup == Dup)
      V.emplace_back(S.StartNs, S.EndNs);
  return merged(std::move(V));
}

double SpanLog::dupSeconds() const {
  // Duplicate work on one thread can overlap real work on another; only
  // the part no real span covers is taken out of the wall time.
  Intervals Dup = topLevel(Spans, true), Real = topLevel(Spans, false);
  return static_cast<double>(length(Dup) - overlap(Dup, Real)) * 1e-9;
}

double SpanLog::wallSeconds() const {
  return static_cast<double>(EndNs) * 1e-9 - dupSeconds();
}

double SpanLog::coverage() const {
  double Wall = wallSeconds();
  return Wall > 0 ? static_cast<double>(length(topLevel(Spans, false))) *
                        1e-9 / Wall
                  : 0.0;
}

std::map<std::string, double> SpanLog::selfSeconds() const {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] += Spans[I].EndNs - Spans[I].StartNs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.EndNs - S.StartNs;
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += static_cast<double>(Self[I]) * 1e-9;
  return Out;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  // Span names and notes are static identifiers: nothing to escape.
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"span\":%zu,\"parent\":%lld,\"id\":%llu,\"dup\":%s,"
                 "\"note\":\"%s\"}}",
                 I ? "," : "", S.Name, S.Tid,
                 static_cast<double>(S.StartNs) * 1e-3,
                 static_cast<double>(S.EndNs - S.StartNs) * 1e-3, I,
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Id),
                 S.Dup ? "true" : "false", S.Note);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
