"""PGQL-subset front end: lexer, parser, AST, expression compiler."""

from .ast import (
    Aggregate,
    Binary,
    EdgePattern,
    Expr,
    FuncCall,
    Literal,
    OrderItem,
    PathMacro,
    PathPattern,
    PropRef,
    Quantifier,
    Query,
    RpqPattern,
    SelectItem,
    Unary,
    VarRef,
    VertexPattern,
    split_conjuncts,
)
from .expressions import Binder, DictBinder, EvalState, compile_expr
from .lexer import Token, tokenize
from .parser import parse, parse_expression

__all__ = [
    "Aggregate",
    "Binary",
    "Binder",
    "DictBinder",
    "EdgePattern",
    "EvalState",
    "Expr",
    "FuncCall",
    "Literal",
    "OrderItem",
    "PathMacro",
    "PathPattern",
    "PropRef",
    "Quantifier",
    "Query",
    "RpqPattern",
    "SelectItem",
    "Token",
    "Unary",
    "VarRef",
    "VertexPattern",
    "compile_expr",
    "parse",
    "parse_expression",
    "split_conjuncts",
    "tokenize",
]
