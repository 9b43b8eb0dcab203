#ifndef SURVEYOR_UTIL_HOTPATH_H_
#define SURVEYOR_UTIL_HOTPATH_H_

// Hot-path annotations for tools/check_hotpath (DESIGN.md §13).
//
// The per-sentence pipeline (tokenize → match → parse → extract) and the
// serving lookup path run millions of times per mining run; `mine
// --profile` attributes most CPU samples to them. These annotations make
// their performance hygiene a statically checked invariant: code inside an
// annotated hot region may not allocate, copy std::strings, take locks,
// or do I/O unless each occurrence is explicitly justified.
//
// Two annotation forms, both recognized purely lexically:
//
//   SURVEYOR_HOT_FUNCTION          marker on a function definition or
//                                  declaration; the region spans the
//                                  signature and (if present) the body.
//   // SURVEYOR_HOT_BEGIN          comment pair delimiting an arbitrary
//   // SURVEYOR_HOT_END            hot region (regions may nest).
//
// Individual findings are suppressed with a justifying comment:
//
//   // NOLINT_HOTPATH(rule)        same line, or
//   // NOLINTNEXTLINE_HOTPATH(rule)
//
// and pre-existing findings live in tools/check_hotpath_baseline.json
// until paid down. The macro expands to nothing so annotating a function
// can never perturb codegen.
#define SURVEYOR_HOT_FUNCTION

#endif  // SURVEYOR_UTIL_HOTPATH_H_
