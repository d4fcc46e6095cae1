/**
 * @file
 * Compile-fail canary: wg::Mutex has no lock()/unlock(), so raw locking
 * is a compile error under every compiler, not a lint finding.
 *
 * ThreadSafety.RawMutexLockFailsToCompile runs the compiler on this file
 * with -fsyntax-only and passes only on the "no member named 'lock'"
 * diagnostic: if raw locking ever compiles again, or the file breaks
 * for another reason, the test fails. Never built into a target.
 */

#include "common/thread_annotations.hh"

namespace {

wg::Mutex mu;
int counter WG_GUARDED_BY(mu) = 0;

void
bumpRaw()
{
    mu.lock(); // seeded error: the only way to lock is a MutexLock
    ++counter;
}

void
bumpGuarded()
{
    wg::MutexLock lock(mu);
    ++counter;
}

} // namespace

int
main()
{
    bumpRaw();
    bumpGuarded();
    return 0;
}
