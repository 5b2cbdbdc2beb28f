/**
 * @file
 * The paper's central abstraction: the *authentication control point* —
 * where in the out-of-order pipeline the result of integrity
 * verification gates execution. Each policy enables a subset of four
 * gates; the pipeline and memory system query these predicates.
 */

#ifndef ACP_CORE_AUTH_POLICY_HH
#define ACP_CORE_AUTH_POLICY_HH

namespace acp::core
{

/** The evaluated design points (paper Section 4.2 / Figure 7). */
enum class AuthPolicy
{
    /** Decryption only, no integrity verification (normalization base). */
    kBaseline,
    /** Data/instructions unusable until verified (Section 4.2.1). */
    kAuthThenIssue,
    /** Stores may not drain to cache/memory until verified (4.2.2). */
    kAuthThenWrite,
    /** Instructions may not commit until verified (4.2.3). */
    kAuthThenCommit,
    /** External fetches stall on pending verifications (4.2.4). */
    kAuthThenFetch,
    /** Recommended combination: commit + fetch gating (Table 2). */
    kCommitPlusFetch,
    /** authen-then-commit plus HIDE-style address obfuscation (4.3). */
    kCommitPlusObfuscation,
};

/** Verification is performed at all (everything except the baseline). */
constexpr bool
verifies(AuthPolicy p)
{
    return p != AuthPolicy::kBaseline;
}

/** Fill data unusable until its authentication completes. */
constexpr bool
gatesIssue(AuthPolicy p)
{
    return p == AuthPolicy::kAuthThenIssue;
}

/** Instruction commit waits for own-line and operand-line verification. */
constexpr bool
gatesCommit(AuthPolicy p)
{
    return p == AuthPolicy::kAuthThenCommit ||
           p == AuthPolicy::kCommitPlusFetch ||
           p == AuthPolicy::kCommitPlusObfuscation;
}

/** Committed stores held in the store-release buffer until verified. */
constexpr bool
gatesWrite(AuthPolicy p)
{
    // Commit-gating subsumes write-gating: operands of the store are
    // verified before the store may commit. kAuthThenWrite applies the
    // buffer without blocking commit.
    return p == AuthPolicy::kAuthThenWrite;
}

/** Bus grant for new external fetches waits for pending verification. */
constexpr bool
gatesFetch(AuthPolicy p)
{
    return p == AuthPolicy::kAuthThenFetch ||
           p == AuthPolicy::kCommitPlusFetch;
}

/** Address obfuscation (re-map layer) enabled. */
constexpr bool
obfuscates(AuthPolicy p)
{
    return p == AuthPolicy::kCommitPlusObfuscation;
}

/** Short display name matching the paper's terminology. */
constexpr const char *
policyName(AuthPolicy p)
{
    switch (p) {
      case AuthPolicy::kBaseline:             return "baseline";
      case AuthPolicy::kAuthThenIssue:        return "authen-then-issue";
      case AuthPolicy::kAuthThenWrite:        return "authen-then-write";
      case AuthPolicy::kAuthThenCommit:       return "authen-then-commit";
      case AuthPolicy::kAuthThenFetch:        return "authen-then-fetch";
      case AuthPolicy::kCommitPlusFetch:      return "commit+fetch";
      case AuthPolicy::kCommitPlusObfuscation:return "commit+obfuscation";
    }
    return "?";
}

} // namespace acp::core

#endif // ACP_CORE_AUTH_POLICY_HH
