package experiments

import (
	"cyclesql/internal/core"
	"cyclesql/internal/nli"
)

// FrozenVerifier is the embedded default verifier's JSON.
func FrozenVerifier() []byte { return frozenVerifier }

// TrainVerifier trains at the limits' config, bypassing the cache.
func TrainVerifier(lim Limits, fb core.Feedback) *nli.Trained { return trainVerifier(lim, fb) }

// TrainedVerifier is trainedVerifier: the cached path Verifier and Fig 9 take.
func TrainedVerifier(lim Limits, fb core.Feedback) *nli.Trained { return trainedVerifier(lim, fb) }

// ForgetVerifier drops the cached data-grounded verifier for the limits,
// so the next Verifier call loads or trains it afresh.
func ForgetVerifier(lim Limits) {
	verifierMu.Lock()
	delete(verifierCache, verifierKey(lim, core.NewDataGrounded()))
	verifierMu.Unlock()
}
