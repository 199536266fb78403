"""Synthetic retail / customer-management data (Example 2, Section VII-D(b)).

The paper's small-business owner manages customers, invoices, payments and
suppliers in a MySQL schema.  This generator produces a compatible schema and
seeded data so the linkTable / sql / generative-query path can be exercised
end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.storage.database import Database

_SUPPLIER_NAMES = (
    "Prairie Supply Co", "Champaign Wholesale", "Illini Traders", "Midwest Goods",
    "Lincoln Logistics", "Sangamon Parts", "Urbana Imports", "Decatur Distribution",
)
_CUSTOMER_FIRST = ("Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi")
_CUSTOMER_LAST = ("Nguyen", "Smith", "Garcia", "Chen", "Patel", "Johnson", "Lee", "Brown")
_STATUSES = ("paid", "due", "overdue")


@dataclass
class RetailDataset:
    """The generated tables, as column lists plus row tuples."""

    suppliers: list[tuple] = field(default_factory=list)
    customers: list[tuple] = field(default_factory=list)
    invoices: list[tuple] = field(default_factory=list)
    payments: list[tuple] = field(default_factory=list)

    SUPPLIER_COLUMNS = ("supp_id", "name", "city")
    CUSTOMER_COLUMNS = ("cust_id", "name", "email")
    INVOICE_COLUMNS = ("inv_id", "cust_id", "supp_id", "amount", "status", "due_day")
    PAYMENT_COLUMNS = ("pay_id", "inv_id", "amount", "day")

    def load_into(self, database: Database) -> None:
        """Create and populate the four tables inside ``database``."""
        database.create_table("supp", list(self.SUPPLIER_COLUMNS), key_column="supp_id")
        database.create_table("customer", list(self.CUSTOMER_COLUMNS), key_column="cust_id")
        database.create_table("invoice", list(self.INVOICE_COLUMNS), key_column="inv_id")
        database.create_table("payment", list(self.PAYMENT_COLUMNS), key_column="pay_id")
        database.insert_many("supp", self.suppliers)
        database.insert_many("customer", self.customers)
        database.insert_many("invoice", self.invoices)
        database.insert_many("payment", self.payments)


def generate_retail_dataset(
    *,
    suppliers: int = 6,
    customers: int = 20,
    invoices: int = 80,
    seed: int = 1234,
) -> RetailDataset:
    """Generate a seeded retail dataset with referentially consistent keys."""
    rng = random.Random(seed)
    dataset = RetailDataset()
    for supplier_id in range(1, suppliers + 1):
        dataset.suppliers.append(
            (supplier_id, _SUPPLIER_NAMES[(supplier_id - 1) % len(_SUPPLIER_NAMES)], "Champaign")
        )
    for customer_id in range(1, customers + 1):
        name = f"{rng.choice(_CUSTOMER_FIRST)} {rng.choice(_CUSTOMER_LAST)}"
        dataset.customers.append(
            (customer_id, name, f"{name.split()[0].lower()}{customer_id}@example.com")
        )
    payment_id = 1
    for invoice_id in range(1, invoices + 1):
        customer_id = rng.randint(1, customers)
        supplier_id = rng.randint(1, suppliers)
        amount = round(rng.uniform(20, 2_500), 2)
        status = rng.choices(_STATUSES, weights=(0.6, 0.25, 0.15))[0]
        due_day = rng.randint(1, 90)
        dataset.invoices.append((invoice_id, customer_id, supplier_id, amount, status, due_day))
        if status == "paid":
            dataset.payments.append((payment_id, invoice_id, amount, due_day - rng.randint(0, 10)))
            payment_id += 1
        elif rng.random() < 0.3:
            dataset.payments.append(
                (payment_id, invoice_id, round(amount * rng.uniform(0.2, 0.8), 2), due_day)
            )
            payment_id += 1
    return dataset
