package core

import "errors"

// Typed failure errors. Every admitted request terminates in exactly one of
// two ways: a successful completion delivered over the completion ring, or
// one of these errors delivered through ClientConn.OnFailed and recorded in
// the job's metrics record (JobRecord.Failed/FailureReason). The fault
// layer's conservation guarantee — no admitted job is silently lost, no
// matter the fault schedule — is checkable by summing completions and typed
// failures against submissions.
var (
	// ErrKernelTimeout: a dispatched kernel produced no placement
	// notifications within the timeout window and the bounded re-dispatch
	// budget (maxKernelRetries) is exhausted.
	ErrKernelTimeout = errors.New("paella: kernel timeout, retries exhausted")
	// ErrLoadFailed: the model's H2D weight load failed repeatedly
	// (maxLoadRetries exceeded).
	ErrLoadFailed = errors.New("paella: weight load failed, retries exhausted")
	// ErrClientDisconnected: the job's client disconnected mid-flight; the
	// result has nowhere to go and undispatched work was dropped.
	ErrClientDisconnected = errors.New("paella: client disconnected")
)
