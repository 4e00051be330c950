// Sanitizer interop.
//
// DCD_NO_SANITIZE_THREAD disables ThreadSanitizer instrumentation for one
// function. Used only where a benign-by-design race is inherent to a
// published algorithm: LFRC re-initialises recycled (type-stable) object
// headers that stale readers may still probe — the stale value is always
// discarded via a failed validation DCAS, but the C++ memory model calls
// the overlap a race. Keep the annotation on the *re-init* side so readers
// stay fully instrumented.
#pragma once

#if defined(__SANITIZE_THREAD__)
#define DCD_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DCD_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#else
#define DCD_NO_SANITIZE_THREAD
#endif
#else
#define DCD_NO_SANITIZE_THREAD
#endif

// DCD_NO_SANITIZE_ADDRESS mirrors the above for AddressSanitizer. Same
// policy applies: annotate only functions whose out-of-lifetime access is
// part of a published algorithm's contract (type-stable pools probed by
// stale readers), never to paper over an actual bug, and always with an
// adjacent comment saying why — tools/analyze enforces the comment.
#if defined(__SANITIZE_ADDRESS__)
#define DCD_NO_SANITIZE_ADDRESS __attribute__((no_sanitize("address")))
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DCD_NO_SANITIZE_ADDRESS __attribute__((no_sanitize("address")))
#else
#define DCD_NO_SANITIZE_ADDRESS
#endif
#else
#define DCD_NO_SANITIZE_ADDRESS
#endif
