"""Exact toolkit for trimmed pfaffian ideals over three-variable rings."""

from .polyring import PolyRing, PrimeField, RationalField, QQ, Polynomial, \
    decompose_c
from .pfaffian import SkewMatrix, pfaffian_keep, pfaffian_drop, sigma3, \
    sigma5, rearrange_sign, check_identities, IdentityReport
from .resolution import BasisElement, ChainComplex, TrimmedData, \
    gorenstein_resolution, trimmed_resolution, verify_diagrams, minimize, \
    signed_v, DiagramReport
from .dgproducts import ChainElement, ProductTable, LeibnizReport, \
    d_constants, product, full_table, multiply, boundary, verify_leibniz, \
    gorenstein_product, zero_element
from .classify import TorReport, TorProductTable, ConjectureReport, \
    classify, tor_products, check_conjectures, conjugate_trim_set
from .families import FamilySpec, FamilyReport, ScanRecord, ScanResult, \
    build_family, family_checks, realizability_scan, write_scan_csv
from .cli import MatrixDocument, parse_matrix_document, \
    serialize_matrix_document, document_of_matrix
from . import errors

__all__ = [
    "PolyRing", "PrimeField", "RationalField", "QQ", "Polynomial",
    "decompose_c",
    "SkewMatrix", "pfaffian_keep", "pfaffian_drop", "sigma3", "sigma5",
    "rearrange_sign", "check_identities", "IdentityReport",
    "BasisElement", "ChainComplex", "TrimmedData", "gorenstein_resolution",
    "trimmed_resolution", "verify_diagrams", "minimize", "signed_v",
    "DiagramReport",
    "ChainElement", "ProductTable", "LeibnizReport", "d_constants",
    "product", "full_table", "multiply", "boundary", "verify_leibniz",
    "gorenstein_product", "zero_element",
    "TorReport", "TorProductTable", "ConjectureReport", "classify",
    "tor_products", "check_conjectures", "conjugate_trim_set",
    "FamilySpec", "FamilyReport", "ScanRecord", "ScanResult",
    "build_family", "family_checks", "realizability_scan", "write_scan_csv",
    "MatrixDocument", "parse_matrix_document", "serialize_matrix_document",
    "document_of_matrix",
    "errors",
]
