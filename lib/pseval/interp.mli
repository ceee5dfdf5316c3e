(** The interpreter — the reproduction of [ScriptBlock.Invoke].

    Expressions, pipelines with streaming enumeration, the cmdlets
    obfuscators emit, user functions, and control flow; execution is
    budgeted, and side effects go through {!Env.record}, so [Recovery] mode
    can never touch the outside world. *)

exception Return_exc of Psvalue.Value.t list
exception Break_exc
exception Continue_exc
exception Throw_exc of Psvalue.Value.t
exception Exit_exc

type ctx = { env : Env.t; src : string }

val eval_expr : ctx -> Psast.Ast.t -> Psvalue.Value.t
(** Evaluate an expression node.  @raise Env.Eval_error and friends. *)

val eval_statement : ctx -> Psast.Ast.t -> Psvalue.Value.t list
(** Evaluate a statement, returning its output stream. *)

val run_ast : Env.t -> src:string -> Psast.Ast.t -> Psvalue.Value.t list
(** Evaluate a parsed script; [Return_exc]/[Exit_exc] are absorbed. *)

val run_script : Env.t -> string -> (Psvalue.Value.t list, string) result
(** Parse and evaluate; every evaluation exception is rendered as an error
    message. *)

val invoke_piece : Env.t -> string -> (Psvalue.Value.t, string) result
(** Execute a recoverable piece and return its collected output as one
    value ([Null] / the value / an array) — the paper's "Recovery Based on
    Invoke" (§III-B2). *)

val describe_exception : exn -> string option
(** Render the evaluator's exception family to a message; [None] for
    foreign exceptions. *)
