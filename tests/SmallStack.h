//===- tests/SmallStack.h - Run a test body on a small stack ---*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a callable on a fresh thread with a small native stack, so a
/// recursion whose depth grows with the input overflows it loudly instead
/// of passing on the default 8 MB stack.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_TESTS_SMALLSTACK_H
#define COSTAR_TESTS_SMALLSTACK_H

#include <gtest/gtest.h>

#include <pthread.h>

#include <functional>

namespace costar {
namespace test {

/// Runs \p Fn on a fresh thread with a \p StackBytes native stack.
inline void runOnSmallStack(size_t StackBytes,
                            const std::function<void()> &Fn) {
  pthread_attr_t Attr;
  ASSERT_EQ(pthread_attr_init(&Attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&Attr, StackBytes), 0);
  pthread_t Thread;
  auto Trampoline = [](void *Arg) -> void * {
    (*static_cast<const std::function<void()> *>(Arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&Thread, &Attr, Trampoline,
                           const_cast<std::function<void()> *>(&Fn)),
            0);
  pthread_join(Thread, nullptr);
  pthread_attr_destroy(&Attr);
}

} // namespace test
} // namespace costar

#endif // COSTAR_TESTS_SMALLSTACK_H
