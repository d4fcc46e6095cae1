/**
 * @file
 * Compile-fail canary: the std:: handles inside wg::Mutex and
 * wg::MutexLock are private, so no call site can lock around the
 * annotated wrappers through them.
 *
 * ThreadSafety.MutexNativeIsPrivate runs the compiler on this file with
 * -fsyntax-only and passes only on an access ("private") diagnostic: if
 * native() is ever public again, or the file breaks for another
 * reason, the test fails. Never built into a target.
 */

#include "common/thread_annotations.hh"

namespace {

wg::Mutex mu;
int counter WG_GUARDED_BY(mu) = 0;

void
bumpThroughHandle()
{
    // Seeded error: Mutex::native() is for MutexLock alone.
    std::lock_guard<std::mutex> guard(mu.native());
    ++counter;
}

} // namespace

int
main()
{
    bumpThroughHandle();
    return 0;
}
