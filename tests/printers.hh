/**
 * @file
 * gtest printers for simulator types that tests take as parameters.
 * Without one, gtest prints a parameter's raw bytes, padding included,
 * and gtest_discover_tests puts what it prints into the ctest name.
 */

#ifndef ACP_TESTS_PRINTERS_HH
#define ACP_TESTS_PRINTERS_HH

#include <ostream>

#include "core/auth_policy.hh"

namespace acp::core
{

/** A policy parameter prints as its paper name. */
inline void
PrintTo(AuthPolicy policy, std::ostream *os)
{
    *os << policyName(policy);
}

} // namespace acp::core

#endif // ACP_TESTS_PRINTERS_HH
