package cmdlang

import (
	"errors"
	"time"
)

// Return commands: the ACE convention for replying to an attempted
// command. A reply is itself a command line named "ok" or "fail",
// correlated to its request by the "seq" argument, which the daemon
// runtime copies from request to reply.

const (
	// ReplyOKName is the command name of a successful return command.
	ReplyOKName = "ok"
	// ReplyFailName is the command name of a failed return command.
	ReplyFailName = "fail"
	// SeqArg is the request/reply correlation argument.
	SeqArg = "seq"
	// ErrorArg carries the failure description on a "fail" reply.
	ErrorArg = "error"
	// CodeArg carries a machine-readable failure code on a "fail" reply.
	CodeArg = "code"
	// RetryAfterArg carries the server's suggested retry delay in
	// milliseconds on a "busy" fail reply.
	RetryAfterArg = "retry_after"
)

// Failure codes carried in the CodeArg of "fail" replies.
const (
	CodeUnknownCommand = "unknown_command"
	CodeBadArgument    = "bad_argument"
	CodeDenied         = "denied"
	CodeNotFound       = "not_found"
	CodeConflict       = "conflict"
	CodeInternal       = "internal"
	CodeUnavailable    = "unavailable"
	// CodeBusy is the admission-control push-back: the daemon shed the
	// command instead of queueing it. Unlike every other code it is
	// retryable — the command was never executed, so clients retry with
	// backoff, honoring the reply's retry_after hint when present.
	CodeBusy = "busy"
)

// OK builds a successful return command. Result arguments are added
// by the caller with Set.
func OK() *CmdLine { return New(ReplyOKName) }

// Fail builds a failed return command carrying the error text and a
// machine-readable code.
func Fail(code, msg string) *CmdLine {
	return New(ReplyFailName).SetWord(CodeArg, code).SetString(ErrorArg, msg)
}

// FailErr builds a failed return command from a Go error, mapping
// known error types to codes.
func FailErr(err error) *CmdLine {
	code := CodeInternal
	var sem *SemanticError
	var pe *ParseError
	switch {
	case errors.As(err, &sem):
		code = CodeBadArgument
	case errors.As(err, &pe):
		code = CodeBadArgument
	}
	return Fail(code, err.Error())
}

// Busy builds the overload push-back return command. A positive
// retryAfter is the server's hint for when capacity should be back;
// it rides along as retry_after in milliseconds (rounded up so a
// sub-millisecond hint does not encode as "retry immediately").
func Busy(retryAfter time.Duration) *CmdLine {
	c := Fail(CodeBusy, "server overloaded; retry later")
	if retryAfter > 0 {
		ms := (retryAfter + time.Millisecond - 1) / time.Millisecond
		c.SetInt(RetryAfterArg, int64(ms))
	}
	return c
}

// IsOK reports whether the command line is a successful return
// command.
func IsOK(c *CmdLine) bool { return c != nil && c.Name() == ReplyOKName }

// IsFail reports whether the command line is a failed return command.
func IsFail(c *CmdLine) bool { return c != nil && c.Name() == ReplyFailName }

// IsReply reports whether the command line is any return command.
func IsReply(c *CmdLine) bool { return IsOK(c) || IsFail(c) }

// ReplyError converts a "fail" return command into a Go error; it
// returns nil for "ok" replies.
func ReplyError(c *CmdLine) error {
	if c == nil {
		return errors.New("cmdlang: nil reply")
	}
	if IsOK(c) {
		return nil
	}
	if IsFail(c) {
		return &RemoteError{
			Code:       c.Str(CodeArg, CodeInternal),
			Msg:        c.Str(ErrorArg, "unspecified failure"),
			RetryAfter: time.Duration(c.Int(RetryAfterArg, 0)) * time.Millisecond,
		}
	}
	return errors.New("cmdlang: reply is not a return command: " + c.Name())
}

// RemoteError is a failure reported by the remote daemon through a
// "fail" return command.
type RemoteError struct {
	Code string
	Msg  string
	// RetryAfter is the server-suggested retry delay on CodeBusy
	// replies (zero when the server sent no hint).
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string { return "ace: remote error (" + e.Code + "): " + e.Msg }

// IsRemoteCode reports whether err is a RemoteError with the given
// code.
func IsRemoteCode(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}
