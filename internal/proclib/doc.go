// Package proclib is the standard process library for the
// process-network runtime: the concrete process types used throughout
// the paper's examples — sources (Constant, Sequence), plumbing
// (Duplicate, Cons, PassThrough), arithmetic (Add, Scale, Divide,
// Average, Equal), the Sieve of Eratosthenes (Modulo, Sift,
// SiftRecursive), ordered merging for the Hamming network, the Figure 13
// splitter, static scatter/gather, and sinks (Print, Collect, Discard).
//
// Conventions:
//
//   - Channels carry bytes; these processes layer typed elements on top
//     with package token (int64 and float64 elements are 8 bytes,
//     variable-size elements are length-prefixed blocks).
//   - Every process type is registered with encoding/gob and keeps its
//     stream state — its ports, and whatever it must remember between
//     steps to go on (a position, a count, queued heads, a filter
//     history, a round-robin lane, a delivered head) — in exported
//     fields, so the runtime can discover and close its ports when it
//     stops, and a process serialized to a remote compute server,
//     before it starts or mid-stream, goes on exactly where it was.
//     Unexported fields hold scratch (read buffers, runs), which is
//     empty at every step boundary, and local observation (Collect's
//     record, Print's writer).
//   - Processes with a natural iteration count embed core.Iterative;
//     setting Iterations imposes the fixed iteration limit of §3.4,
//     counted in elements, and Done counts the elements moved so far.
//   - Scale, Modulo, OrderedMerge, Sequence, Collect and Count move a
//     run of up to runLen elements per step (see runLen); the others
//     move one element, or one chunk of bytes, per step.
package proclib
